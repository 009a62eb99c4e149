package group

import (
	"math/big"
	"math/rand"
	"testing"
)

// fieldCurves are the two primes the Montgomery field serves
// (secp256r1-fast shares secp256r1's).
func fieldCurves() []*Curve { return []*Curve{Secp256k1(), Secp256r1()} }

// fieldEdges are the values most likely to break carry and reduction
// handling: 0, 1, p−1, p−2, R mod p, and inputs at or above p that the
// big→limb boundary must reduce (p, p+1, 2²⁵⁶−1).
func fieldEdges(p *big.Int) []*big.Int {
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(p, big.NewInt(1)),
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Mod(r, p),
		new(big.Int).Set(p),
		new(big.Int).Add(p, big.NewInt(1)),
		new(big.Int).Sub(r, big.NewInt(1)),
	}
}

// checkFieldOps compares every field operation on (x, y) against math/big
// modulo p.
func checkFieldOps(t *testing.T, c *Curve, x, y *big.Int) {
	t.Helper()
	f, p := c.fp, c.P
	fx, fy := f.fromBig(x), f.fromBig(y)
	mod := func(v *big.Int) *big.Int { return v.Mod(v, p) }
	xr := mod(new(big.Int).Set(x))
	check := func(op string, got fieldElem, want *big.Int) {
		t.Helper()
		if g := f.toBig(got); g.Cmp(want) != 0 {
			t.Fatalf("%s: %s(%x, %x) = %x, want %x", c.Name, op, x, y, g, want)
		}
	}
	check("round trip", fx, xr)
	check("mul", f.mul(fx, fy), mod(new(big.Int).Mul(x, y)))
	check("square", f.square(fx), mod(new(big.Int).Mul(x, x)))
	check("add", f.add(fx, fy), mod(new(big.Int).Add(x, y)))
	check("sub", f.sub(fx, fy), mod(new(big.Int).Sub(x, y)))
	check("neg", f.neg(fx), mod(new(big.Int).Neg(x)))
}

func TestFieldMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(256))
	buf := make([]byte, 32)
	for _, c := range fieldCurves() {
		vals := fieldEdges(c.P)
		for i := 0; i < 64; i++ {
			rng.Read(buf)
			vals = append(vals, new(big.Int).SetBytes(buf))
		}
		for _, x := range vals {
			for _, y := range vals {
				checkFieldOps(t, c, x, y)
			}
		}
	}
}

// FuzzFieldOps drives the same differential check with fuzzer-chosen
// 256-bit operands, on both primes.
func FuzzFieldOps(f *testing.F) {
	for _, c := range fieldCurves() {
		for _, e := range fieldEdges(c.P) {
			var b [32]byte
			e.FillBytes(b[:])
			f.Add(b[:], b[:])
		}
	}
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		if len(xb) > 32 || len(yb) > 32 {
			return
		}
		x, y := new(big.Int).SetBytes(xb), new(big.Int).SetBytes(yb)
		for _, c := range fieldCurves() {
			checkFieldOps(t, c, x, y)
		}
	})
}

// TestJacobianAllocFree pins the point of the limb field: point addition
// and doubling allocate nothing.
func TestJacobianAllocFree(t *testing.T) {
	for _, c := range fieldCurves() {
		p := c.toJacobian(c.ScalarMult(c.generator(), big.NewInt(3)))
		q := c.jacDouble(c.jacDouble(p))
		var sink jacobianPoint
		if n := testing.AllocsPerRun(100, func() { sink = c.jacAdd(p, q) }); n != 0 {
			t.Errorf("%s: jacAdd allocates %v times", c.Name, n)
		}
		if n := testing.AllocsPerRun(100, func() { sink = c.jacDouble(p) }); n != 0 {
			t.Errorf("%s: jacDouble allocates %v times", c.Name, n)
		}
		_ = sink
	}
}

func TestWindowDigitMatchesBits(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	buf := make([]byte, 32)
	for i := 0; i < 32; i++ {
		rng.Read(buf)
		k := new(big.Int).SetBytes(buf)
		limbs := limbsOf(k)
		for _, w := range []int{4, 6, 8, 10, 12} {
			for win := 0; win*w < 256; win++ {
				want := 0
				for bit := 0; bit < w; bit++ {
					want |= int(k.Bit(win*w+bit)) << bit
				}
				if got := windowDigit(&limbs, win, w); got != want {
					t.Fatalf("k=%x w=%d win=%d: digit %d, want %d", k, w, win, got, want)
				}
			}
		}
	}
}

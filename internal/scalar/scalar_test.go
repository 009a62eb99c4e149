package scalar

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// testOrder is the secp256k1 group order, a representative 256-bit prime.
var testOrder, _ = new(big.Int).SetString(
	"fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141", 16)

func testField() *Field { return NewField(testOrder) }

func randomElement(rng *rand.Rand, f *Field) *big.Int {
	b := make([]byte, 32)
	rng.Read(b)
	return f.Reduce(new(big.Int).SetBytes(b))
}

func TestFieldAddSubRoundTrip(t *testing.T) {
	f := testField()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := randomElement(rng, f)
		b := randomElement(rng, f)
		got := f.Reduce(new(big.Int).Sub(f.Add(a, b), b))
		if got.Cmp(a) != 0 {
			t.Fatalf("(a+b)-b != a: a=%v b=%v got=%v", a, b, got)
		}
	}
}

func TestFieldAddCommutativeAssociative(t *testing.T) {
	f := testField()
	check := func(ab, bb, cb [32]byte) bool {
		a := f.Reduce(new(big.Int).SetBytes(ab[:]))
		b := f.Reduce(new(big.Int).SetBytes(bb[:]))
		c := f.Reduce(new(big.Int).SetBytes(cb[:]))
		if f.Add(a, b).Cmp(f.Add(b, a)) != 0 {
			return false
		}
		return f.Add(f.Add(a, b), c).Cmp(f.Add(a, f.Add(b, c))) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFieldMulDistributes(t *testing.T) {
	f := testField()
	check := func(ab, bb, cb [32]byte) bool {
		a := f.Reduce(new(big.Int).SetBytes(ab[:]))
		b := f.Reduce(new(big.Int).SetBytes(bb[:]))
		c := f.Reduce(new(big.Int).SetBytes(cb[:]))
		lhs := f.Mul(a, f.Add(b, c))
		rhs := f.Add(f.Mul(a, b), f.Mul(a, c))
		return lhs.Cmp(rhs) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFieldNeg(t *testing.T) {
	f := testField()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		a := randomElement(rng, f)
		if f.Add(a, f.Reduce(new(big.Int).Neg(a))).Sign() != 0 {
			t.Fatalf("a + (-a) != 0 for a=%v", a)
		}
	}
	if f.Reduce(new(big.Int).Neg(new(big.Int))).Sign() != 0 {
		t.Fatal("-0 != 0")
	}
}

func TestFieldSumVecs(t *testing.T) {
	f := testField()
	a := []*big.Int{big.NewInt(1), big.NewInt(2)}
	b := []*big.Int{big.NewInt(10), big.NewInt(20)}
	c := []*big.Int{big.NewInt(100), big.NewInt(200)}
	got, err := f.SumVecs(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int64() != 111 || got[1].Int64() != 222 {
		t.Fatalf("bad sum: %v", got)
	}
	if _, err := f.SumVecs(); err == nil {
		t.Fatal("expected error on empty sum")
	}
	if _, err := f.SumVecs(a, []*big.Int{big.NewInt(1)}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestQuantizerRoundTrip(t *testing.T) {
	f := testField()
	q, err := NewQuantizer(f, DefaultShift)
	if err != nil {
		t.Fatal(err)
	}
	eps := 1.0 / math.Ldexp(1, DefaultShift-1)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		x := (rng.Float64() - 0.5) * 200 // [-100, 100)
		v, err := q.Encode(x)
		if err != nil {
			t.Fatal(err)
		}
		got := q.DecodeVec([]*big.Int{v})[0]
		if math.Abs(got-x) > eps {
			t.Fatalf("round trip error too large: x=%v got=%v", x, got)
		}
	}
}

func TestQuantizerNegativeValues(t *testing.T) {
	f := testField()
	q, _ := NewQuantizer(f, 16)
	v, err := q.Encode(-1.5)
	if err != nil {
		t.Fatal(err)
	}
	// Negative values wrap to the top of the field.
	if v.Cmp(f.half) <= 0 {
		t.Fatalf("expected encoding above order/2, got %v", v)
	}
	if got := q.DecodeVec([]*big.Int{v})[0]; got != -1.5 {
		t.Fatalf("decode: got %v want -1.5", got)
	}
}

func TestQuantizerSumHomomorphism(t *testing.T) {
	f := testField()
	q, _ := NewQuantizer(f, DefaultShift)
	rng := rand.New(rand.NewSource(5))
	const trainers = 16
	const dim = 32
	encoded := make([][]*big.Int, trainers)
	trueSum := make([]float64, dim)
	for tr := 0; tr < trainers; tr++ {
		vec := make([]float64, dim)
		for i := range vec {
			vec[i] = (rng.Float64() - 0.5) * 2
			// The true sum of the *quantized* values is what must be
			// recovered exactly.
			trueSum[i] += math.Round(vec[i]*math.Ldexp(1, DefaultShift)) / math.Ldexp(1, DefaultShift)
		}
		enc, err := q.EncodeVec(vec)
		if err != nil {
			t.Fatal(err)
		}
		encoded[tr] = enc
	}
	sum, err := f.SumVecs(encoded...)
	if err != nil {
		t.Fatal(err)
	}
	dec := q.DecodeVec(sum)
	for i := range dec {
		if math.Abs(dec[i]-trueSum[i]) > 1e-9 {
			t.Fatalf("element %d: decoded sum %v != quantized true sum %v", i, dec[i], trueSum[i])
		}
	}
}

func TestQuantizerRejectsNonFinite(t *testing.T) {
	f := testField()
	q, _ := NewQuantizer(f, DefaultShift)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := q.Encode(x); err == nil {
			t.Fatalf("expected error encoding %v", x)
		}
	}
	if _, err := q.Encode(math.Ldexp(1, 60)); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestNewQuantizerValidation(t *testing.T) {
	f := testField()
	if _, err := NewQuantizer(f, 0); err == nil {
		t.Fatal("expected error for shift 0")
	}
	if _, err := NewQuantizer(f, 64); err == nil {
		t.Fatal("expected error for shift 64")
	}
}

// p256Order is the secp256r1 group order: unlike secp256k1's it sits well
// below 2^256, so out-of-range 32-byte values are common rather than rare.
var p256Order, _ = new(big.Int).SetString(
	"ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551", 16)

// TestVectorSumsAreCanonical: DecodeBlock accepts any 32-byte value, so the
// sum kernels meet elements in [order, 2^256). Whatever comes in, every
// element that goes out is in [0, order) — a merged block has one encoding
// and one CID. (order-1) + (2^256-1) left 2^256-2 behind before the fix.
func TestVectorSumsAreCanonical(t *testing.T) {
	max256 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	for _, order := range []*big.Int{testOrder, p256Order} {
		f := NewField(order)
		top := new(big.Int).Sub(order, big.NewInt(1))
		a := []*big.Int{top, top, new(big.Int).Set(order), max256, big.NewInt(0), big.NewInt(-1)}
		b := []*big.Int{max256, top, max256, max256, new(big.Int).Set(order), big.NewInt(-1)}
		sum, err := f.SumVecs(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sum {
			want := new(big.Int).Add(a[i], b[i])
			want.Mod(want, order)
			if sum[i].Cmp(want) != 0 {
				t.Fatalf("element %d: SumVecs %x, want %x", i, sum[i], want)
			}
			if got := f.Add(a[i], b[i]); got.Cmp(want) != 0 {
				t.Fatalf("element %d: Add %x, want %x", i, got, want)
			}
		}
		// A lone out-of-range vector is reduced too, not passed through.
		one, err := f.SumVecs(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range one {
			if !f.reduced(one[i]) {
				t.Fatalf("element %d of a one-vector sum left unreduced: %x", i, one[i])
			}
		}
	}
}

// TestSlabIsolation pins the representation invariants of slab-backed
// vectors: an element that outgrows its window detaches without touching a
// neighbour, the sum kernels only read their inputs, and a result shares no
// storage with what it was summed from.
func TestSlabIsolation(t *testing.T) {
	f := testField()
	rng := rand.New(rand.NewSource(9))
	const n = 17
	snapshot := func(v []*big.Int) []*big.Int {
		out := make([]*big.Int, len(v))
		for i := range v {
			out[i] = new(big.Int).Set(v[i])
		}
		return out
	}
	equal := func(what string, got, want []*big.Int) {
		t.Helper()
		for i := range want {
			if got[i].Cmp(want[i]) != 0 {
				t.Fatalf("%s: element %d is %x, want %x", what, i, got[i], want[i])
			}
		}
	}
	fill := func() []*big.Int {
		v := NewVec(n)
		for i := range v {
			v[i].Set(randomElement(rng, f))
		}
		return v
	}

	v := fill()
	want := snapshot(v)
	for _, i := range []int{0, n / 2, n - 1} {
		v[i].Lsh(v[i], 512) // four times the window
		want[i].Lsh(want[i], 512)
		equal("after growing one element", v, want)
		v[i].Rsh(v[i], 512)
		want[i].Rsh(want[i], 512)
	}
	a, b := fill(), fill()
	wantA, wantB := snapshot(a), snapshot(b)
	sum, err := f.SumVecs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	equal("SumVecs input a", a, wantA)
	equal("SumVecs input b", b, wantB)
	wantSum := make([]*big.Int, n)
	for i := range wantSum {
		wantSum[i] = f.Add(wantA[i], wantB[i])
	}
	equal("SumVecs", sum, wantSum)
	// Drop the inputs — overwrite them, as a reused buffer would — and the
	// sum must not notice.
	for i := range a {
		a[i].SetInt64(0)
		b[i].SetUint64(math.MaxUint64)
	}
	equal("sum after its inputs were dropped", sum, wantSum)
	// Nothing the kernels did grew an element out of its window.
	for i := range sum {
		if cap(sum[i].Bits()) != vecWords {
			t.Fatalf("sum element %d left its window: cap %d, want %d", i, cap(sum[i].Bits()), vecWords)
		}
	}
}

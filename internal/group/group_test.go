package group

import (
	"crypto/elliptic"
	"math/big"
	"math/rand"
	"testing"
)

func allCurves() []*Curve {
	return []*Curve{Secp256k1(), Secp256r1(), Secp256r1Fast()}
}

func randScalar(rng *rand.Rand, c *Curve) *big.Int {
	b := make([]byte, 32)
	rng.Read(b)
	return new(big.Int).Mod(new(big.Int).SetBytes(b), c.N)
}

func TestGeneratorOnCurve(t *testing.T) {
	for _, c := range allCurves() {
		if !c.IsOnCurve(c.generator()) {
			t.Errorf("%s: generator not on curve", c.Name)
		}
	}
}

func TestOrderTimesGeneratorIsInfinity(t *testing.T) {
	for _, c := range allCurves() {
		g := c.generator()
		// (N-1)·G + G must be the identity.
		nm1 := new(big.Int).Sub(c.N, big.NewInt(1))
		p := c.ScalarMult(g, nm1)
		sum := c.Add(p, g)
		if !sum.IsInfinity() {
			t.Errorf("%s: (N-1)G + G != infinity", c.Name)
		}
	}
}

func TestScalarMultMatchesRepeatedAdd(t *testing.T) {
	for _, c := range allCurves() {
		g := c.generator()
		acc := Infinity()
		for k := 1; k <= 20; k++ {
			acc = c.Add(acc, g)
			got := c.ScalarMult(g, big.NewInt(int64(k)))
			if !got.Equal(acc) {
				t.Fatalf("%s: %d·G mismatch", c.Name, k)
			}
			if !c.IsOnCurve(got) {
				t.Fatalf("%s: %d·G off curve", c.Name, k)
			}
		}
	}
}

func TestAddCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, c := range allCurves() {
		for i := 0; i < 10; i++ {
			p := c.ScalarMult(c.generator(), randScalar(rng, c))
			q := c.ScalarMult(c.generator(), randScalar(rng, c))
			if !c.Add(p, q).Equal(c.Add(q, p)) {
				t.Fatalf("%s: addition not commutative", c.Name)
			}
		}
	}
}

func TestAddAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range allCurves() {
		for i := 0; i < 5; i++ {
			p := c.ScalarMult(c.generator(), randScalar(rng, c))
			q := c.ScalarMult(c.generator(), randScalar(rng, c))
			r := c.ScalarMult(c.generator(), randScalar(rng, c))
			lhs := c.Add(c.Add(p, q), r)
			rhs := c.Add(p, c.Add(q, r))
			if !lhs.Equal(rhs) {
				t.Fatalf("%s: addition not associative", c.Name)
			}
		}
	}
}

func TestScalarMultDistributesOverScalarAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, c := range allCurves() {
		g := c.generator()
		for i := 0; i < 5; i++ {
			a := randScalar(rng, c)
			b := randScalar(rng, c)
			sum := new(big.Int).Add(a, b)
			lhs := c.ScalarMult(g, sum)
			rhs := c.Add(c.ScalarMult(g, a), c.ScalarMult(g, b))
			if !lhs.Equal(rhs) {
				t.Fatalf("%s: (a+b)G != aG + bG", c.Name)
			}
		}
	}
}

func TestNegation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, c := range allCurves() {
		p := c.ScalarMult(c.generator(), randScalar(rng, c))
		if !c.Add(p, c.Neg(p)).IsInfinity() {
			t.Errorf("%s: P + (-P) != infinity", c.Name)
		}
		if !c.Neg(Infinity()).IsInfinity() {
			t.Errorf("%s: -infinity != infinity", c.Name)
		}
	}
}

func TestDoubleMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, c := range allCurves() {
		for i := 0; i < 5; i++ {
			p := c.ScalarMult(c.generator(), randScalar(rng, c))
			if !c.ScalarMult(p, big.NewInt(2)).Equal(c.Add(p, p)) {
				t.Fatalf("%s: 2P != P+P", c.Name)
			}
		}
		if !c.Add(Infinity(), Infinity()).IsInfinity() {
			t.Errorf("%s: 2·infinity != infinity", c.Name)
		}
	}
}

func TestIdentityLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, c := range allCurves() {
		p := c.ScalarMult(c.generator(), randScalar(rng, c))
		if !c.Add(p, Infinity()).Equal(p) || !c.Add(Infinity(), p).Equal(p) {
			t.Errorf("%s: identity not neutral", c.Name)
		}
		if !c.ScalarMult(p, new(big.Int)).IsInfinity() {
			t.Errorf("%s: 0·P != infinity", c.Name)
		}
		if !c.ScalarMult(Infinity(), big.NewInt(7)).IsInfinity() {
			t.Errorf("%s: k·infinity != infinity", c.Name)
		}
	}
}

// TestGenericMatchesFastBackend cross-checks the Jacobian arithmetic of
// both P-256 curves against crypto/elliptic, used here as a test oracle.
func TestGenericMatchesFastBackend(t *testing.T) {
	std := elliptic.P256()
	for _, c := range []*Curve{Secp256r1(), Secp256r1Fast()} {
		rng := rand.New(rand.NewSource(16))
		for i := 0; i < 10; i++ {
			k := randScalar(rng, c)
			p := c.ScalarMult(c.generator(), k)
			x, y := std.ScalarBaseMult(k.Bytes())
			if !p.Equal(Point{X: x, Y: y}) {
				t.Fatalf("%s: scalar base mult mismatch for k=%v", c.Name, k)
			}
			k2 := randScalar(rng, c)
			q := c.ScalarMult(p, k2)
			qx, qy := std.ScalarMult(x, y, k2.Bytes())
			if !q.Equal(Point{X: qx, Y: qy}) {
				t.Fatalf("%s: scalar mult mismatch", c.Name)
			}
			sx, sy := std.Add(x, y, qx, qy)
			if !c.Add(p, q).Equal(Point{X: sx, Y: sy}) {
				t.Fatalf("%s: add mismatch", c.Name)
			}
			dx, dy := std.Double(x, y)
			if !c.Add(p, p).Equal(Point{X: dx, Y: dy}) {
				t.Fatalf("%s: double mismatch", c.Name)
			}
		}
	}
}

// TestSecp256k1KnownVector checks 2·G against the published test vector.
func TestSecp256k1KnownVector(t *testing.T) {
	c := Secp256k1()
	want := Point{
		X: mustHex("c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"),
		Y: mustHex("1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a"),
	}
	if got := c.Add(c.generator(), c.generator()); !got.Equal(want) {
		t.Fatalf("2G mismatch: got (%x, %x)", got.X, got.Y)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, c := range allCurves() {
		for i := 0; i < 10; i++ {
			p := c.ScalarMult(c.generator(), randScalar(rng, c))
			enc := c.Encode(p)
			got, err := c.Decode(enc)
			if err != nil {
				t.Fatalf("%s: decode: %v", c.Name, err)
			}
			if !got.Equal(p) {
				t.Fatalf("%s: round trip mismatch", c.Name)
			}
		}
		// Identity round trip.
		enc := c.Encode(Infinity())
		got, err := c.Decode(enc)
		if err != nil || !got.IsInfinity() {
			t.Fatalf("%s: identity round trip failed: %v", c.Name, err)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	c := Secp256k1()
	if _, err := c.Decode(make([]byte, 10)); err == nil {
		t.Fatal("expected length error")
	}
	bad := make([]byte, EncodedSize)
	bad[0] = 4
	bad[10] = 0xff
	if _, err := c.Decode(bad); err == nil {
		t.Fatal("expected off-curve error")
	}
	bad2 := make([]byte, EncodedSize)
	bad2[0] = 2
	if _, err := c.Decode(bad2); err == nil {
		t.Fatal("expected unsupported-tag error")
	}
	bad3 := make([]byte, EncodedSize)
	bad3[5] = 1 // tag 0 but non-zero body
	if _, err := c.Decode(bad3); err == nil {
		t.Fatal("expected malformed-identity error")
	}
}

func TestHashToPointDeterministicAndOnCurve(t *testing.T) {
	for _, c := range allCurves() {
		p1 := c.HashToPoint("generators", 0)
		p2 := c.HashToPoint("generators", 0)
		if !p1.Equal(p2) {
			t.Errorf("%s: hash-to-point not deterministic", c.Name)
		}
		if !c.IsOnCurve(p1) {
			t.Errorf("%s: hashed point off curve", c.Name)
		}
		q := c.HashToPoint("generators", 1)
		if p1.Equal(q) {
			t.Errorf("%s: distinct indices mapped to the same point", c.Name)
		}
		r := c.HashToPoint("other-label", 0)
		if p1.Equal(r) {
			t.Errorf("%s: distinct labels mapped to the same point", c.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"secp256k1", "secp256r1", "secp256r1-fast"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if c == nil {
			t.Fatalf("ByName(%q) returned nil", name)
		}
	}
	if _, err := ByName("ed25519"); err == nil {
		t.Fatal("expected error for unknown curve")
	}
}

func TestIsOnCurveRejectsOutOfRange(t *testing.T) {
	c := Secp256k1()
	p := Point{X: new(big.Int).Set(c.P), Y: big.NewInt(1)}
	if c.IsOnCurve(p) {
		t.Fatal("x >= p accepted")
	}
	q := Point{X: big.NewInt(-1), Y: big.NewInt(1)}
	if c.IsOnCurve(q) {
		t.Fatal("negative coordinate accepted")
	}
}

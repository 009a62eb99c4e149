package group

import (
	"crypto/elliptic"
	"math/big"
	"math/rand"
	"testing"
)

func randomInputs(rng *rand.Rand, c *Curve, n int) ([]Point, []*big.Int) {
	points := make([]Point, n)
	scalars := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		points[i] = c.ScalarMult(c.generator(), randScalar(rng, c))
		scalars[i] = randScalar(rng, c)
	}
	return points, scalars
}

func TestMultiExpStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, c := range []*Curve{Secp256k1(), Secp256r1()} {
		for _, n := range []int{1, 2, 7, 33} {
			points, scalars := randomInputs(rng, c, n)
			want, err := c.MultiScalarMult(points, scalars, StrategyNaive)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []MultiExpStrategy{StrategyWindowed, StrategyPippenger, StrategyAuto} {
				got, err := c.MultiScalarMult(points, scalars, s)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s n=%d: %v disagrees with naive", c.Name, n, s)
				}
			}
		}
	}
}

func TestMultiExpSmallScalars(t *testing.T) {
	// Fixed-point gradient encodings are tiny positive values or huge
	// negative-wrapped values; both must be handled by all strategies.
	c := Secp256k1()
	rng := rand.New(rand.NewSource(21))
	n := 16
	points := make([]Point, n)
	scalars := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		points[i] = c.ScalarMult(c.generator(), randScalar(rng, c))
		v := big.NewInt(int64(rng.Intn(1 << 20)))
		if rng.Intn(2) == 0 { // negative-wrapped value near the order
			v.Sub(c.N, v)
		}
		scalars[i] = v
	}
	want, _ := c.MultiScalarMult(points, scalars, StrategyNaive)
	for _, s := range []MultiExpStrategy{StrategyWindowed, StrategyPippenger} {
		got, err := c.MultiScalarMult(points, scalars, s)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%v disagrees with naive on signed-wrapped scalars", s)
		}
	}
}

func TestMultiExpZeroScalars(t *testing.T) {
	c := Secp256r1()
	rng := rand.New(rand.NewSource(22))
	points, _ := randomInputs(rng, c, 5)
	scalars := make([]*big.Int, 5)
	for i := range scalars {
		scalars[i] = new(big.Int)
	}
	for _, s := range []MultiExpStrategy{StrategyNaive, StrategyWindowed, StrategyPippenger} {
		got, err := c.MultiScalarMult(points, scalars, s)
		if err != nil {
			t.Fatal(err)
		}
		if !got.IsInfinity() {
			t.Fatalf("%v: all-zero scalars should give identity", s)
		}
	}
}

// TestMultiExpFastCurve checks every strategy on the default curve against
// a sum of crypto/elliptic scalar mults, used here as a test oracle.
func TestMultiExpFastCurve(t *testing.T) {
	c := Secp256r1Fast()
	std := elliptic.P256()
	rng := rand.New(rand.NewSource(23))
	points, scalars := randomInputs(rng, c, 8)
	var wx, wy *big.Int
	for i, p := range points {
		x, y := std.ScalarMult(p.X, p.Y, scalars[i].Bytes())
		if i == 0 {
			wx, wy = x, y
			continue
		}
		wx, wy = std.Add(wx, wy, x, y)
	}
	want := Point{X: wx, Y: wy}
	for _, s := range []MultiExpStrategy{StrategyAuto, StrategyNaive, StrategyWindowed, StrategyPippenger, StrategyParallel, StrategyPrecomputed} {
		got, err := c.MultiScalarMult(points, scalars, s)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%v disagrees with crypto/elliptic", s)
		}
	}
}

func TestMultiExpErrors(t *testing.T) {
	c := Secp256k1()
	if _, err := c.MultiScalarMult(nil, nil, StrategyNaive); err == nil {
		t.Fatal("expected error on empty input")
	}
	if _, err := c.MultiScalarMult([]Point{c.generator()}, nil, StrategyNaive); err == nil {
		t.Fatal("expected error on length mismatch")
	}
	if _, err := c.MultiScalarMult([]Point{c.generator()}, []*big.Int{big.NewInt(1)}, MultiExpStrategy(99)); err == nil {
		t.Fatal("expected error on unknown strategy")
	}
}

func TestStrategyString(t *testing.T) {
	cases := map[MultiExpStrategy]string{
		StrategyAuto:         "auto",
		StrategyNaive:        "naive",
		StrategyWindowed:     "windowed",
		StrategyPippenger:    "pippenger",
		StrategyParallel:     "parallel",
		StrategyPrecomputed:  "precomputed",
		MultiExpStrategy(42): "strategy(42)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(s), s.String(), want)
		}
	}
}

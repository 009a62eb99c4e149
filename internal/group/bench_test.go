package group

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

func benchScalar(b *testing.B, c *Curve) *big.Int {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 32)
	rng.Read(buf)
	return new(big.Int).Mod(new(big.Int).SetBytes(buf), c.N)
}

func BenchmarkScalarMult(b *testing.B) {
	for _, c := range allCurves() {
		b.Run(c.Name, func(b *testing.B) {
			k := benchScalar(b, c)
			p := c.generator()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ScalarMult(p, k)
			}
		})
	}
}

func BenchmarkAdd(b *testing.B) {
	for _, c := range allCurves() {
		b.Run(c.Name, func(b *testing.B) {
			p := c.ScalarMult(c.generator(), benchScalar(b, c))
			q := c.Add(p, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Add(p, q)
			}
		})
	}
}

func BenchmarkHashToPoint(b *testing.B) {
	for _, c := range allCurves() {
		b.Run(c.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.HashToPoint("bench", i)
			}
		})
	}
}

// BenchmarkMultiExp compares every multiexp strategy at sizes spanning the
// auto-selection bands; the n=4096 parallel-vs-pippenger pair is the
// ISSUE's reported speedup number.
func BenchmarkMultiExp(b *testing.B) {
	c := Secp256k1()
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{32, 256, 4096} {
		points, scalars := randomInputs(rng, c, n)
		for _, s := range []MultiExpStrategy{StrategyPippenger, StrategyParallel} {
			b.Run(fmt.Sprintf("%s/n=%d", s, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := c.MultiScalarMult(points, scalars, s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMultiExpFixed measures the fixed-base path with tables built
// outside the loop, the shape Pedersen commitments use per iteration.
func BenchmarkMultiExpFixed(b *testing.B) {
	c := Secp256k1()
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{32, 256} {
		points, scalars := randomInputs(rng, c, n)
		bases := make([]*FixedBase, n)
		for i := range points {
			bases[i] = c.NewFixedBase(points[i])
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.MultiScalarMultFixed(bases, scalars); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	c := Secp256k1()
	p := c.ScalarMult(c.generator(), benchScalar(b, c))
	enc := c.Encode(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJacobian times the limb-field point operations every multiexp
// strategy is built from.
func BenchmarkJacobian(b *testing.B) {
	for _, c := range []*Curve{Secp256k1(), Secp256r1()} {
		p := c.toJacobian(c.ScalarMult(c.generator(), benchScalar(b, c)))
		q := c.jacDouble(c.jacDouble(p))
		b.Run("add/"+c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p = c.jacAdd(p, q)
			}
		})
		b.Run("double/"+c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p = c.jacDouble(p)
			}
		})
	}
}

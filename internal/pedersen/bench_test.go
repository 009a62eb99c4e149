package pedersen

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"ipls/internal/group"
	"ipls/internal/scalar"
)

func benchParams(b *testing.B, n int) (*Params, []*big.Int) {
	b.Helper()
	p, err := Setup(group.Secp256k1(), n, "bench")
	if err != nil {
		b.Fatal(err)
	}
	q, _ := scalar.NewQuantizer(p.Field(), scalar.DefaultShift)
	rng := rand.New(rand.NewSource(7))
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = (rng.Float64() - 0.5) * 10
	}
	v, err := q.EncodeVec(vec)
	if err != nil {
		b.Fatal(err)
	}
	return p, v
}

// BenchmarkCommit compares the sequential baseline (Pippenger), the
// precomputed fixed-base tables, and auto routing at the widths a
// partition commit actually sees.
func BenchmarkCommit(b *testing.B) {
	for _, n := range []int{64, 512} {
		p, v := benchParams(b, n)
		for _, s := range []group.MultiExpStrategy{group.StrategyPippenger, group.StrategyPrecomputed, group.StrategyAuto} {
			b.Run(fmt.Sprintf("%s/n=%d", s, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := p.CommitWith(v, s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCommitParallel measures the parallel Pippenger commit path at a
// width past every auto crossover; compare against the pippenger rows of
// BenchmarkCommit for the per-core scaling.
func BenchmarkCommitParallel(b *testing.B) {
	for _, n := range []int{512, 4096} {
		p, v := benchParams(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.CommitWith(v, group.StrategyParallel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchVerify pits one random-linear-combination batch check
// against the per-upload Verify loop it replaces, at the verif_k1 block
// width (L=193) and batch sizes around the crossover batchMinUploads
// records; m=2 is what every aggregator of the benchmark workloads sees.
func BenchmarkBatchVerify(b *testing.B) {
	for _, curve := range []*group.Curve{group.Secp256k1(), group.Secp256r1Fast()} {
		for _, m := range []int{2, 3, 4, 5, 6, 7, 8, 16} {
			const n = 193
			p, err := Setup(curve, n, "bench")
			if err != nil {
				b.Fatal(err)
			}
			q, _ := scalar.NewQuantizer(p.Field(), scalar.DefaultShift)
			rng := rand.New(rand.NewSource(8))
			vecs := make([][]*big.Int, m)
			cs := make([]Commitment, m)
			points := make([]group.Point, m)
			for j := 0; j < m; j++ {
				vecs[j] = randomVector(rng, q, n)
				if cs[j], err = p.Commit(vecs[j]); err != nil {
					b.Fatal(err)
				}
				if points[j], err = curve.Decode(cs[j]); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(fmt.Sprintf("%s/batch/m=%d", curve.Name, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ok, err := p.batchVerify(vecs, points, n)
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						b.Fatal("honest batch rejected")
					}
				}
			})
			b.Run(fmt.Sprintf("%s/loop/m=%d", curve.Name, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j := range vecs {
						ok, err := p.Verify(vecs[j], cs[j])
						if err != nil {
							b.Fatal(err)
						}
						if !ok {
							b.Fatal("honest upload rejected")
						}
					}
				}
			})
		}
	}
}

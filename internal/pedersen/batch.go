package pedersen

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"runtime/pprof"

	"ipls/internal/group"
)

// batchChallengeBits sizes the random coefficients of the linear
// combination. 128 bits keeps the soundness error at 2⁻¹²⁸ while halving
// the scalar width of the commitment-side multiexp relative to full-order
// coefficients.
const batchChallengeBits = 128

// batchMinUploads is the smallest batch BatchVerify combines; smaller
// batches loop Verify, which is exact. There the combined check pays for
// its 128-bit coefficients: they widen ~26-bit fixed-point scalars to
// ~150 bits, so the combined commit costs several plain ones.
// BenchmarkBatchVerify at L=193 on secp256k1 (2-core 2.1 GHz Xeon,
// medians of 4×40 runs) puts the crossover between m=6 (batch 6.8 ms,
// loop 6.5 ms) and m=7 (batch 7.2 ms, loop 8.0 ms); at m=2 the batch
// takes 7.8 ms against the loop's 2.6 ms. On secp256r1-fast (medians of
// 3×20 runs) batch and loop are within noise from m=5 to m=7, the batch
// wins at m=8 (6.9 ms against 8.9 ms), and at m=2 it takes 8.2 ms against
// 2.5 ms, so the same constant serves both curves.
const batchMinUploads = 7

// BatchVerify checks that every commitment cs[j] commits to vecs[j], all
// at once: it samples random coefficients rⱼ and verifies the single
// equation
//
//	Commit(∑ⱼ rⱼ·vecs[j]) == ∑ⱼ rⱼ·cs[j]
//
// The left side is one n-element multiexp over the generators (n = longest
// vector) and the right one m-element multiexp over the commitment points,
// replacing m full recommitments — the per-upload Verify loop the
// aggregator would otherwise run for a partition (§IV-A).
//
// Soundness: if cs[k] does not commit to vecs[k] for some k, the
// difference point Dₖ = cs[k] − Commit(vecs[k]) is not the identity, and
// the check passes only if ∑ⱼ rⱼ·Dⱼ happens to be the identity. With rₖ
// uniform over 2¹²⁸ values that holds with probability at most 2⁻¹²⁸
// (condition on the other coefficients: at most one choice of rₖ can
// cancel a fixed non-identity Dₖ). A true batch therefore always passes,
// and a batch with any tampered upload fails except with negligible
// probability. BatchVerify reports only whether the whole batch is
// consistent; callers that need the offending index fall back to
// per-upload Verify.
//
// Batches below batchMinUploads are checked upload by upload instead:
// exact, and faster at that size.
func (p *Params) BatchVerify(vecs [][]*big.Int, cs []Commitment) (bool, error) {
	if len(vecs) != len(cs) {
		return false, fmt.Errorf("pedersen: %d vectors but %d commitments", len(vecs), len(cs))
	}
	if len(vecs) == 0 {
		return false, errors.New("pedersen: nothing to batch-verify")
	}
	maxLen := 0
	for j, v := range vecs {
		if len(v) == 0 {
			return false, fmt.Errorf("pedersen: vector %d is empty", j)
		}
		if len(v) > maxLen {
			maxLen = len(v)
		}
	}
	points := make([]group.Point, len(cs))
	for j, c := range cs {
		pt, err := p.curve.Decode(c)
		if err != nil {
			return false, fmt.Errorf("pedersen: commitment %d: %w", j, err)
		}
		points[j] = pt
	}
	if len(vecs) < batchMinUploads {
		for j := range vecs {
			if ok, err := p.Verify(vecs[j], cs[j]); err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}
	return p.batchVerify(vecs, points, maxLen)
}

// batchVerify is the random-linear-combination check over decoded
// commitment points; vecs is non-empty and maxLen its longest length.
func (p *Params) batchVerify(vecs [][]*big.Int, points []group.Point, maxLen int) (bool, error) {
	defer accountOp("pedersen_batch_verify", len(vecs))()
	bound := new(big.Int).Lsh(big.NewInt(1), batchChallengeBits)
	coeffs := make([]*big.Int, len(vecs))
	for j := range coeffs {
		r, err := rand.Int(rand.Reader, bound)
		if err != nil {
			return false, fmt.Errorf("pedersen: sample batch challenge: %w", err)
		}
		// A zero coefficient would drop upload j from the check entirely.
		coeffs[j] = r.Add(r, big.NewInt(1))
	}

	var ok bool
	var err error
	pprof.Do(context.Background(), pprof.Labels("phase", "pedersen_batch_verify"), func(context.Context) {
		// Combined vector: ∑ⱼ rⱼ·vecs[j], element-wise in the scalar field.
		combined := make([]*big.Int, maxLen)
		for i := range combined {
			combined[i] = new(big.Int)
		}
		for j, v := range vecs {
			r := coeffs[j]
			for i, x := range v {
				combined[i] = p.field.Add(combined[i], p.field.Mul(r, p.field.Reduce(x)))
			}
		}
		var want Commitment
		want, err = p.Commit(combined)
		if err != nil {
			return
		}
		var rhs group.Point
		rhs, err = p.curve.MultiScalarMult(points, coeffs, group.StrategyAuto)
		if err != nil {
			return
		}
		ok = want.Equal(Commitment(p.curve.Encode(rhs)))
	})
	if err != nil {
		return false, err
	}
	return ok, nil
}

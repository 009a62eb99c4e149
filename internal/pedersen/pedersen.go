// Package pedersen implements the deterministic Pedersen vector commitments
// used by the paper for verifiable aggregation (§IV-A).
//
// A commitment to a vector v = (v₀ … v_{n−1}) is C = ∏ hᵢ^{vᵢ}, where the
// hᵢ are public generators with unknown mutual discrete logarithms. The
// commitment is vector-binding under the discrete-logarithm assumption and
// additively homomorphic: C(v₁)·C(v₂) = C(v₁+v₂), which is exactly what lets
// the directory service verify that an aggregator's update equals the sum of
// the trainers' gradients without seeing the gradients.
package pedersen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"runtime/pprof"
	"sync"

	"ipls/internal/group"
	"ipls/internal/scalar"
)

// Commitment is an opaque serialized commitment (an encoded curve point).
type Commitment []byte

// Equal reports whether two commitments are byte-identical. Encodings are
// canonical, so this coincides with group-element equality.
func (c Commitment) Equal(other Commitment) bool { return bytes.Equal(c, other) }

// Params holds the public parameters for committing to vectors of up to
// Len() elements.
type Params struct {
	curve *group.Curve
	label string
	field *scalar.Field

	mu   sync.Mutex
	gens []group.Point

	// fixed holds fixed-base window tables for the generator prefix
	// gens[:len(fixed)] (built in Setup/Extend — generators never change
	// within a session, so the tables amortize across every Commit).
	// Guarded by mu; entries are immutable once appended, so a Commit
	// that snapshots the slice under mu may use it lock-free afterwards.
	fixed []*group.FixedBase
}

// Setup deterministically derives public parameters for vectors of length n
// on the given curve. Generators are derived by hashing (label, index) to
// curve points, so all parties compute identical parameters without trusted
// setup. Additional generators are derived lazily if longer vectors are
// later committed through Extend.
func Setup(curve *group.Curve, n int, label string) (*Params, error) {
	if n < 0 {
		return nil, fmt.Errorf("pedersen: negative vector length %d", n)
	}
	p := &Params{
		curve: curve,
		label: label,
		field: scalar.NewField(curve.N),
	}
	if err := p.Extend(n); err != nil {
		return nil, err
	}
	return p, nil
}

// Field returns the scalar field of the commitment group.
func (p *Params) Field() *scalar.Field { return p.field }

// Len returns the number of generators currently derived.
func (p *Params) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.gens)
}

// Extend makes sure at least n generators are available, building the
// fixed-base tables of the first commitFixedMax at the same time so a
// commitment never observes a covered generator without its table.
func (p *Params) Extend(n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.extendLocked(n)
	return nil
}

func (p *Params) extendLocked(n int) {
	for i := len(p.gens); i < n; i++ {
		p.gens = append(p.gens, p.curve.HashToPoint(p.label, i))
	}
	p.buildTablesLocked(n)
}

// buildTablesLocked grows the fixed-base table prefix to cover min(n,
// commitFixedMax) generators: StrategyAuto reads tables only for vectors
// that short, so tables past the cap would be memory nothing reads (the
// Fig. 3 sweep extends Params to millions of generators). Each table is
// 1.5 KB, so the cap bounds table memory at 144 KB per Params.
func (p *Params) buildTablesLocked(n int) {
	n = min(n, commitFixedMax, len(p.gens))
	for i := len(p.fixed); i < n; i++ {
		p.fixed = append(p.fixed, p.curve.NewFixedBase(p.gens[i]))
	}
}

// generators returns the first n generators, deriving more as needed.
func (p *Params) generators(n int) []group.Point {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.extendLocked(n)
	return p.gens[:n]
}

// fixedPrefix returns fixed-base tables covering the first n generators.
// Past commitFixedMax the missing tables are built here, for explicit
// StrategyPrecomputed requests. The returned slice is safe to read
// without the lock: entries are immutable and appends never reuse indices.
func (p *Params) fixedPrefix(n int) []*group.FixedBase {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.extendLocked(n)
	for i := len(p.fixed); i < n; i++ {
		p.fixed = append(p.fixed, p.curve.NewFixedBase(p.gens[i]))
	}
	return p.fixed[:n]
}

// Commit commits to the vector v using the automatically selected
// multi-exponentiation strategy.
func (p *Params) Commit(v []*big.Int) (Commitment, error) {
	return p.CommitWith(v, group.StrategyAuto)
}

// commitFixedMax is the vector length above which StrategyAuto prefers
// Pippenger (sequential or parallel) over the fixed-base tables: the
// shared-doubling walk over 4-bit tables costs ~(scalar bits/4)·n point
// additions, while Pippenger's bucket windows grow with n, so past ~100
// elements the tables stop paying for their lookups (measured with
// fixed-point gradient scalars on secp256k1).
const commitFixedMax = 96

// CommitWith commits to v using an explicit multi-exponentiation strategy.
// StrategyAuto routes through the precomputed generator tables when the
// vector is short enough for the fixed-base walk to win (Setup/Extend
// build exactly those tables); longer vectors use the regular multiexp
// auto-selection, including parallel Pippenger.
func (p *Params) CommitWith(v []*big.Int, strategy group.MultiExpStrategy) (Commitment, error) {
	if len(v) == 0 {
		return nil, errors.New("pedersen: cannot commit to an empty vector")
	}
	defer accountOp("pedersen_commit", len(v))()
	var out Commitment
	var err error
	// Label the commit's CPU samples (phase=pedersen_commit); the inner
	// MultiScalarMult narrows them further to its strategy.
	pprof.Do(context.Background(), pprof.Labels("phase", "pedersen_commit"), func(context.Context) {
		injectAlloc()
		var point group.Point
		if strategy == group.StrategyPrecomputed || (strategy == group.StrategyAuto && len(v) <= commitFixedMax) {
			point, err = p.curve.MultiScalarMultFixed(p.fixedPrefix(len(v)), v)
		} else {
			point, err = p.curve.MultiScalarMult(p.generators(len(v)), v, strategy)
		}
		if err == nil {
			out = Commitment(p.curve.Encode(point))
		}
	})
	if err != nil {
		return nil, fmt.Errorf("pedersen: %w", err)
	}
	return out, nil
}

// Verify reports whether C is the commitment to v, by recomputing the
// commitment (§IV-A: "given the vector and the commitment, one can verify it
// is a valid pre-image by re-running this computation").
func (p *Params) Verify(v []*big.Int, c Commitment) (bool, error) {
	want, err := p.Commit(v)
	if err != nil {
		return false, err
	}
	return want.Equal(c), nil
}

// Combine homomorphically combines commitments: the result commits to the
// element-wise field sum of the committed vectors.
func (p *Params) Combine(cs ...Commitment) (Commitment, error) {
	if len(cs) == 0 {
		return nil, errors.New("pedersen: nothing to combine")
	}
	acc := group.Infinity()
	for i, c := range cs {
		pt, err := p.curve.Decode(c)
		if err != nil {
			return nil, fmt.Errorf("pedersen: commitment %d: %w", i, err)
		}
		acc = p.curve.Add(acc, pt)
	}
	return Commitment(p.curve.Encode(acc)), nil
}

// Uncombine homomorphically removes a commitment from an accumulator:
// the result commits to the element-wise field difference of the
// committed vectors. It is Combine's inverse — the directory uses it to
// expunge a proven-Byzantine gradient from a partition accumulator
// without recombining every honest commitment from scratch.
func (p *Params) Uncombine(acc, c Commitment) (Commitment, error) {
	accPt, err := p.curve.Decode(acc)
	if err != nil {
		return nil, fmt.Errorf("pedersen: accumulator: %w", err)
	}
	pt, err := p.curve.Decode(c)
	if err != nil {
		return nil, fmt.Errorf("pedersen: removed commitment: %w", err)
	}
	return Commitment(p.curve.Encode(p.curve.Add(accPt, p.curve.Neg(pt)))), nil
}

// Identity returns the commitment to the all-zero vector, the neutral
// element for Combine.
func (p *Params) Identity() Commitment {
	return Commitment(p.curve.Encode(group.Infinity()))
}

// Valid reports whether c decodes to a point on the curve.
func (p *Params) Valid(c Commitment) bool {
	_, err := p.curve.Decode(c)
	return err == nil
}

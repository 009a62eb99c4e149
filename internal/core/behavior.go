package core

import (
	"fmt"
	"math/big"

	"ipls/internal/model"
	"ipls/internal/scalar"
)

// Behavior models what an aggregator does with the gradients it collected —
// honest aggregation, or one of the malicious deviations from §III-A
// ("malicious aggregators that can either drop or alter the gradients
// received by trainers").
type Behavior int

// Aggregator behaviors.
const (
	// BehaviorHonest follows the protocol.
	BehaviorHonest Behavior = iota + 1
	// BehaviorDropGradient omits one trainer's gradient from the
	// aggregate (e.g. a lazy aggregator saving bandwidth).
	BehaviorDropGradient
	// BehaviorAlterGradient perturbs the aggregate's values (e.g. a
	// competitor poisoning the model).
	BehaviorAlterGradient
	// BehaviorForgeUpdate publishes an arbitrary fabricated update.
	BehaviorForgeUpdate
	// BehaviorDropout models an aggregator that crashes before doing any
	// work; peers must take over its trainer set (§III-D).
	BehaviorDropout
)

// String names the behavior.
func (b Behavior) String() string {
	switch b {
	case BehaviorHonest:
		return "honest"
	case BehaviorDropGradient:
		return "drop-gradient"
	case BehaviorAlterGradient:
		return "alter-gradient"
	case BehaviorForgeUpdate:
		return "forge-update"
	case BehaviorDropout:
		return "dropout"
	default:
		return fmt.Sprintf("behavior(%d)", int(b))
	}
}

// applyBehavior folds the collected gradient blocks, encoded, with
// model.Merge and returns the aggregate the aggregator will claim as its
// partial update, corrupted (or not) in the merge's fresh output.
func applyBehavior(f *scalar.Field, blocks [][]byte, b Behavior) ([]byte, error) {
	switch b {
	case BehaviorHonest, BehaviorDropout, 0:
		return model.Merge(f, blocks...)
	case BehaviorDropGradient:
		if len(blocks) > 1 {
			return model.Merge(f, blocks[:len(blocks)-1]...)
		}
		// With a single gradient, "dropping" means claiming a zero
		// contribution but keeping the counter so averaging still
		// divides by the full count.
		sum, err := model.Merge(f, blocks...)
		if err != nil {
			return nil, err
		}
		if counter := len(sum) - scalar.ElementSize; counter > 4 {
			clear(sum[4:counter])
		}
		return sum, nil
	case BehaviorAlterGradient:
		sum, err := model.Merge(f, blocks...)
		if err != nil {
			return nil, err
		}
		// Shift the first coordinate by a large constant: a targeted
		// poisoning of one model weight.
		addToElement(f, sum[4:], new(big.Int).Lsh(big.NewInt(1), 40))
		return sum, nil
	case BehaviorForgeUpdate:
		sum, err := model.Merge(f, blocks...)
		if err != nil {
			return nil, err
		}
		// Keep the counter, the last element, plausible so the forgery is
		// only detectable cryptographically, not by sanity-checking the
		// divisor.
		for i, off := 0, 4; off < len(sum)-scalar.ElementSize; i, off = i+1, off+scalar.ElementSize {
			f.Reduce(big.NewInt(int64(1_000_003*i + 7))).FillBytes(sum[off : off+scalar.ElementSize])
		}
		return sum, nil
	default:
		return nil, fmt.Errorf("core: unknown behavior %v", b)
	}
}

// addToElement adds d, modulo the field order, to the wire element at the
// front of b.
func addToElement(f *scalar.Field, b []byte, d *big.Int) {
	el := b[:scalar.ElementSize]
	f.Add(new(big.Int).SetBytes(el), d).FillBytes(el)
}

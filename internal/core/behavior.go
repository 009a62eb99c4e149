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

// applyBehavior corrupts (or not) the collected gradient blocks and returns
// the aggregate the aggregator will claim as its partial update.
func applyBehavior(f *scalar.Field, blocks []model.Block, b Behavior) (model.Block, error) {
	switch b {
	case BehaviorHonest, BehaviorDropout, 0:
		return model.Sum(f, blocks...)
	case BehaviorDropGradient:
		if len(blocks) > 1 {
			return model.Sum(f, blocks[:len(blocks)-1]...)
		}
		// With a single gradient, "dropping" means claiming a zero
		// contribution but keeping the counter so averaging still
		// divides by the full count.
		sum, err := model.Sum(f, blocks...)
		if err != nil {
			return model.Block{}, err
		}
		for i := 0; i < len(sum.Values)-1; i++ {
			sum.Values[i] = new(big.Int)
		}
		return sum, nil
	case BehaviorAlterGradient:
		sum, err := model.Sum(f, blocks...)
		if err != nil {
			return model.Block{}, err
		}
		// Shift the first coordinate by a large constant: a targeted
		// poisoning of one model weight.
		sum.Values[0] = f.Add(sum.Values[0], new(big.Int).Lsh(big.NewInt(1), 40))
		return sum, nil
	case BehaviorForgeUpdate:
		sum, err := model.Sum(f, blocks...)
		if err != nil {
			return model.Block{}, err
		}
		forged := make([]*big.Int, len(sum.Values))
		for i := range forged {
			forged[i] = f.Reduce(big.NewInt(int64(1_000_003*i + 7)))
		}
		// Keep the counter plausible so the forgery is only detectable
		// cryptographically, not by sanity-checking the divisor.
		forged[len(forged)-1] = sum.Values[len(sum.Values)-1]
		return model.Block{Values: forged}, nil
	default:
		return model.Block{}, fmt.Errorf("core: unknown behavior %v", b)
	}
}

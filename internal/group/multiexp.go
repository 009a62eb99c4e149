package group

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"runtime/pprof"
)

// MultiExpStrategy selects the multi-scalar-multiplication algorithm used to
// evaluate ∏ pᵢ^{kᵢ}. The paper's commitment implementation is the Naive
// one; Windowed and Pippenger implement the multi-exponentiation
// optimizations it cites as future work (Möller '01; Borges et al. '17).
// Parallel splits Pippenger's per-window bucket accumulation across
// cores, and Precomputed uses fixed-base window tables (see FixedBase) —
// the two optimizations that matter when the bases are long-lived Pedersen
// generators committed to every iteration.
type MultiExpStrategy int

const (
	// StrategyAuto picks a strategy based on input size.
	StrategyAuto MultiExpStrategy = iota + 1
	// StrategyNaive computes each scalar multiplication independently.
	StrategyNaive
	// StrategyWindowed uses shared-doubling with per-base 4-bit tables.
	StrategyWindowed
	// StrategyPippenger uses the bucket method with signed-scalar recoding.
	StrategyPippenger
	// StrategyParallel is Pippenger with the window bucket sums computed
	// concurrently by up to GOMAXPROCS workers.
	StrategyParallel
	// StrategyPrecomputed uses fixed-base window tables. Through
	// MultiScalarMult the tables are built ad hoc (useful for differential
	// testing); callers with long-lived bases should build FixedBase
	// tables once and use MultiScalarMultFixed instead.
	StrategyPrecomputed
)

// String returns the strategy name.
func (s MultiExpStrategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyNaive:
		return "naive"
	case StrategyWindowed:
		return "windowed"
	case StrategyPippenger:
		return "pippenger"
	case StrategyParallel:
		return "parallel"
	case StrategyPrecomputed:
		return "precomputed"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// autoStrategy resolves StrategyAuto for an input of n points: tiny inputs
// skip shared-table setup, mid-size inputs use windowed sharing, and large
// inputs use Pippenger — parallelized across windows when the curve's
// parallelism allows it.
func (c *Curve) autoStrategy(n int) MultiExpStrategy {
	switch {
	case n < 4:
		return StrategyNaive
	case n < 32:
		return StrategyWindowed
	case n >= parallelMinPoints && c.workers() > 1:
		return StrategyParallel
	default:
		return StrategyPippenger
	}
}

// MultiScalarMult computes ∑ kᵢ·pᵢ (written multiplicatively in the paper:
// ∏ pᵢ^{kᵢ}). Scalars are reduced modulo the group order.
func (c *Curve) MultiScalarMult(points []Point, scalars []*big.Int, strategy MultiExpStrategy) (Point, error) {
	if len(points) != len(scalars) {
		return Point{}, fmt.Errorf("group: %d points but %d scalars", len(points), len(scalars))
	}
	if len(points) == 0 {
		return Point{}, errors.New("group: empty multi-scalar multiplication")
	}
	if strategy == StrategyAuto {
		strategy = c.autoStrategy(len(points))
	}
	defer accountOp("multiexp_"+strategy.String(), len(points))()
	var pt Point
	err := fmt.Errorf("group: unknown strategy %v", strategy)
	// pprof.Do labels the CPU samples of the dominant cost (Fig. 3:
	// commitment computation) so profiles slice by strategy. It replaces
	// any caller-set span labels for the duration — the crypto hot path
	// is deliberately attributed to itself, not its calling phase.
	pprof.Do(context.Background(), pprof.Labels(
		"phase", "multiexp", "strategy", strategy.String(),
	), func(context.Context) {
		switch strategy {
		case StrategyNaive:
			pt, err = c.multiExpNaive(points, scalars), nil
		case StrategyWindowed:
			pt, err = c.multiExpWindowed(points, scalars), nil
		case StrategyPippenger:
			pt, err = c.multiExpPippenger(points, scalars), nil
		case StrategyParallel:
			pt, err = c.multiExpPippengerParallel(points, scalars), nil
		case StrategyPrecomputed:
			bases := make([]*FixedBase, len(points))
			for i := range points {
				bases[i] = c.NewFixedBase(points[i])
			}
			pt, err = c.multiExpFixed(bases, scalars), nil
		}
	})
	if err != nil {
		return Point{}, err
	}
	return pt, nil
}

func (c *Curve) multiExpNaive(points []Point, scalars []*big.Int) Point {
	acc := Infinity()
	for i := range points {
		term := c.ScalarMult(points[i], scalars[i])
		acc = c.Add(acc, term)
	}
	return acc
}

// recodeScalars reduces each scalar modulo the order and, when the result
// lies in the top half, replaces it by order−k and marks its base for
// negation. This keeps the effective scalar bit-length small for
// fixed-point-encoded gradients, where negative values would otherwise
// wrap to ~256-bit scalars. The recoded scalars come back as limbs, so
// windowDigit is a shift and a mask; maxBits is the longest of them.
func (c *Curve) recodeScalars(scalars []*big.Int) (ks [][4]uint64, negate []bool, maxBits int) {
	ks = make([][4]uint64, len(scalars))
	negate = make([]bool, len(scalars))
	half := new(big.Int).Rsh(c.N, 1)
	kr := new(big.Int)
	for i, k := range scalars {
		kr.Mod(k, c.N)
		if kr.Cmp(half) > 0 {
			kr.Sub(c.N, kr)
			negate[i] = true
		}
		maxBits = max(maxBits, kr.BitLen())
		ks[i] = limbsOf(kr)
	}
	return ks, negate, maxBits
}

// recodeAll signed-recodes every (point, scalar) pair, returning the
// bases in Jacobian form (negated where recoding asks), the recoded
// scalars and the maximum scalar bit length.
func (c *Curve) recodeAll(points []Point, scalars []*big.Int) ([]jacobianPoint, [][4]uint64, int) {
	ks, negate, maxBits := c.recodeScalars(scalars)
	jpoints := make([]jacobianPoint, len(points))
	for i, p := range points {
		jpoints[i] = c.toJacobian(p)
		if negate[i] {
			jpoints[i] = c.jacNeg(jpoints[i])
		}
	}
	return jpoints, ks, maxBits
}

func (c *Curve) multiExpWindowed(points []Point, scalars []*big.Int) Point {
	const w = 4
	jpoints, ks, maxBits := c.recodeAll(points, scalars)
	if maxBits == 0 {
		return Infinity()
	}
	tables := make([][16]jacobianPoint, len(jpoints))
	for i, jp := range jpoints {
		tables[i][1] = jp
		for t := 2; t < 16; t++ {
			if t%2 == 0 {
				tables[i][t] = c.jacDouble(tables[i][t/2])
			} else {
				tables[i][t] = c.jacAdd(tables[i][t-1], jp)
			}
		}
	}
	windows := (maxBits + w - 1) / w
	var acc jacobianPoint
	for win := windows - 1; win >= 0; win-- {
		if !acc.isInfinity() {
			for d := 0; d < w; d++ {
				acc = c.jacDouble(acc)
			}
		}
		for i := range ks {
			if digit := windowDigit(&ks[i], win, w); digit != 0 {
				acc = c.jacAdd(acc, tables[i][digit])
			}
		}
	}
	return c.fromJacobian(acc)
}

// pippengerMinPoints is the crossover below which Pippenger's 2^w bucket
// setup costs more than it saves: with n ≤ 2 every bucket holds at most
// one point, so the bucket pass degenerates into the windowed walk plus
// pure overhead. Such inputs fall through to the windowed strategy.
const pippengerMinPoints = 3

func (c *Curve) multiExpPippenger(points []Point, scalars []*big.Int) Point {
	if len(points) < pippengerMinPoints {
		return c.multiExpWindowed(points, scalars)
	}
	jpoints, ks, maxBits := c.recodeAll(points, scalars)
	if maxBits == 0 {
		return Infinity()
	}
	w := pippengerWindow(len(points))
	windows := (maxBits + w - 1) / w
	buckets := make([]jacobianPoint, 1<<w)
	var acc jacobianPoint
	for win := windows - 1; win >= 0; win-- {
		if !acc.isInfinity() {
			for d := 0; d < w; d++ {
				acc = c.jacDouble(acc)
			}
		}
		sum := c.windowBucketSum(jpoints, ks, win, w, buckets)
		if !sum.isInfinity() {
			acc = c.jacAdd(acc, sum)
		}
	}
	return c.fromJacobian(acc)
}

// windowBucketSum computes one window's contribution ∑ digit·bucket[digit]
// over all points: bucket accumulation followed by the running-sum trick.
// The caller provides the bucket scratch (reused across windows); jpoints
// and ks are only read, so concurrent calls on disjoint windows with
// per-worker scratch are safe.
func (c *Curve) windowBucketSum(jpoints []jacobianPoint, ks [][4]uint64, win, w int, buckets []jacobianPoint) jacobianPoint {
	clear(buckets)
	used := false
	for i := range ks {
		if digit := windowDigit(&ks[i], win, w); digit != 0 {
			buckets[digit] = c.jacAdd(buckets[digit], jpoints[i])
			used = true
		}
	}
	if !used {
		return jacobianPoint{}
	}
	// Bucket aggregation: ∑ b·bucket[b] via the running-sum trick.
	var running, sum jacobianPoint
	for b := len(buckets) - 1; b >= 1; b-- {
		if !buckets[b].isInfinity() {
			running = c.jacAdd(running, buckets[b])
		}
		if !running.isInfinity() {
			sum = c.jacAdd(sum, running)
		}
	}
	return sum
}

// pippengerWindow picks a bucket window size that balances the per-window
// bucket-aggregation cost (2^w adds) against the per-point cost.
func pippengerWindow(n int) int {
	switch {
	case n < 64:
		return 4
	case n < 512:
		return 6
	case n < 4096:
		return 8
	case n < 65536:
		return 10
	default:
		return 12
	}
}

// windowDigit extracts the win-th w-bit digit (w ≤ 64) of the limbs k,
// little-endian windows: one shift and mask, plus the next limb's low bits
// when the window straddles two limbs.
func windowDigit(k *[4]uint64, win, w int) int {
	base := win * w
	limb, shift := base/64, uint(base%64)
	d := k[limb] >> shift
	if shift+uint(w) > 64 && limb+1 < len(k) {
		d |= k[limb+1] << (64 - shift)
	}
	return int(d & (1<<uint(w) - 1))
}

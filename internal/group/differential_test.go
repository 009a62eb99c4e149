package group

import (
	"math/big"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// explicitStrategies is every concrete strategy (Auto excluded: it resolves
// to one of these and is covered separately).
func explicitStrategies() []MultiExpStrategy {
	return []MultiExpStrategy{
		StrategyNaive, StrategyWindowed, StrategyPippenger,
		StrategyParallel, StrategyPrecomputed,
	}
}

// TestMultiExpDifferential is the strategy-equivalence suite: every
// concrete strategy must produce the identical point on the same seeded
// random inputs, across sizes that hit each auto-selection band (and the
// Pippenger tiny-input fallthrough), on both generic curves.
func TestMultiExpDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9001))
	for _, c := range []*Curve{Secp256k1(), Secp256r1()} {
		for _, n := range []int{0, 1, 2, 33, 257} {
			points, scalars := randomInputs(rng, c, n)
			if n == 0 {
				// Empty input is an error regardless of strategy.
				for _, s := range explicitStrategies() {
					if _, err := c.MultiScalarMult(points, scalars, s); err == nil {
						t.Errorf("%s n=0 %v: expected error", c.Name, s)
					}
				}
				continue
			}
			want, err := c.MultiScalarMult(points, scalars, StrategyNaive)
			if err != nil {
				t.Fatal(err)
			}
			if !c.IsOnCurve(want) {
				t.Fatalf("%s n=%d: naive result off-curve", c.Name, n)
			}
			for _, s := range explicitStrategies()[1:] {
				got, err := c.MultiScalarMult(points, scalars, s)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Errorf("%s n=%d: %v disagrees with naive", c.Name, n, s)
				}
			}
			got, err := c.MultiScalarMult(points, scalars, StrategyAuto)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("%s n=%d: auto disagrees with naive", c.Name, n)
			}
		}
	}
}

// TestMultiExpEdgeScalars pins the scalar edge cases on every strategy:
// zero (skipped digits), one (raw base), order−1 (signed recoding flips the
// base), and mixtures thereof alongside random scalars.
func TestMultiExpEdgeScalars(t *testing.T) {
	rng := rand.New(rand.NewSource(9002))
	c := Secp256k1()
	orderMinus1 := new(big.Int).Sub(c.N, big.NewInt(1))
	edges := []*big.Int{big.NewInt(0), big.NewInt(1), orderMinus1}

	cases := [][]*big.Int{
		{big.NewInt(0)},
		{big.NewInt(1)},
		{orderMinus1},
		{big.NewInt(0), big.NewInt(1), orderMinus1},
	}
	// A longer mixed vector: edges interleaved with random scalars so the
	// bucket and table paths see both extremes in one pass.
	mixed := make([]*big.Int, 33)
	for i := range mixed {
		if i%4 == 3 {
			mixed[i] = edges[i%len(edges)]
		} else {
			mixed[i] = randScalar(rng, c)
		}
	}
	cases = append(cases, mixed)

	for ci, scalars := range cases {
		points := make([]Point, len(scalars))
		for i := range points {
			points[i] = c.ScalarMult(c.generator(), randScalar(rng, c))
		}
		want, err := c.MultiScalarMult(points, scalars, StrategyNaive)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range explicitStrategies()[1:] {
			got, err := c.MultiScalarMult(points, scalars, s)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("case %d: %v disagrees with naive", ci, s)
			}
		}
	}
}

// TestMultiExpInfinityBases checks that identity bases contribute nothing
// on every strategy (the precomputed table of infinity is all-infinity).
func TestMultiExpInfinityBases(t *testing.T) {
	rng := rand.New(rand.NewSource(9003))
	c := Secp256r1()
	points, scalars := randomInputs(rng, c, 7)
	points[0] = Infinity()
	points[4] = Infinity()
	want, err := c.MultiScalarMult(points, scalars, StrategyNaive)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range explicitStrategies()[1:] {
		got, err := c.MultiScalarMult(points, scalars, s)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%v disagrees with naive on infinity bases", s)
		}
	}
}

// TestAutoStrategySelection pins the auto-resolution bands, including the
// parallelism-dependent switch to StrategyParallel.
func TestAutoStrategySelection(t *testing.T) {
	c := Secp256k1()
	prev := c.par.Load()
	defer c.par.Store(prev)

	c.par.Store(4)
	cases := []struct {
		n    int
		want MultiExpStrategy
	}{
		{1, StrategyNaive},
		{3, StrategyNaive},
		{4, StrategyWindowed},
		{31, StrategyWindowed},
		{32, StrategyPippenger},
		{parallelMinPoints - 1, StrategyPippenger},
		{parallelMinPoints, StrategyParallel},
		{4096, StrategyParallel},
	}
	for _, tc := range cases {
		if got := c.autoStrategy(tc.n); got != tc.want {
			t.Errorf("autoStrategy(%d) with 4 workers = %v, want %v", tc.n, got, tc.want)
		}
	}

	// One worker: auto must never pick the parallel path.
	c.par.Store(1)
	for _, n := range []int{parallelMinPoints, 4096} {
		if got := c.autoStrategy(n); got != StrategyPippenger {
			t.Errorf("autoStrategy(%d) with 1 worker = %v, want pippenger", n, got)
		}
	}
}

// TestPippengerTinyInputCrossover pins the n≤2 fallthrough: below
// pippengerMinPoints the bucket method degenerates (every bucket holds at
// most one point), so Pippenger and Parallel must route to the windowed
// walk — observable as identical results plus the pinned constant.
func TestPippengerTinyInputCrossover(t *testing.T) {
	if pippengerMinPoints != 3 {
		t.Fatalf("pippengerMinPoints = %d, want 3 (n≤2 falls through to windowed)", pippengerMinPoints)
	}
	rng := rand.New(rand.NewSource(9004))
	c := Secp256k1()
	for n := 1; n <= 4; n++ {
		points, scalars := randomInputs(rng, c, n)
		want, err := c.MultiScalarMult(points, scalars, StrategyNaive)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []MultiExpStrategy{StrategyPippenger, StrategyParallel} {
			got, err := c.MultiScalarMult(points, scalars, s)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("n=%d: %v disagrees with naive at the crossover", n, s)
			}
		}
	}
}

// TestPippengerWindowSizes pins the bucket-width schedule so an accidental
// change to the crossovers shows up as a test diff, not a silent perf shift.
func TestPippengerWindowSizes(t *testing.T) {
	cases := []struct{ n, want int }{
		{3, 4}, {63, 4}, {64, 6}, {511, 6}, {512, 8},
		{4095, 8}, {4096, 10}, {65535, 10}, {65536, 12},
	}
	for _, tc := range cases {
		if got := pippengerWindow(tc.n); got != tc.want {
			t.Errorf("pippengerWindow(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestParallelismKnob checks the default worker count and that the
// parallel path agrees with sequential Pippenger at several forced worker
// counts, including more workers than windows.
func TestParallelismKnob(t *testing.T) {
	c := Secp256k1()
	prev := c.par.Load()
	defer c.par.Store(prev)

	c.par.Store(0)
	if got := c.workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}

	rng := rand.New(rand.NewSource(9005))
	points, scalars := randomInputs(rng, c, 65)
	want, err := c.MultiScalarMult(points, scalars, StrategyPippenger)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 64} {
		c.par.Store(int32(workers))
		got, err := c.MultiScalarMult(points, scalars, StrategyParallel)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("parallel with %d workers disagrees with sequential", workers)
		}
	}
}

// TestMultiExpParallelDeterministic verifies repeated parallel runs return
// bit-identical points: worker scheduling must not leak into the result.
func TestMultiExpParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9006))
	c := Secp256r1()
	points, scalars := randomInputs(rng, c, 130)
	first, err := c.MultiScalarMult(points, scalars, StrategyParallel)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, err := c.MultiScalarMult(points, scalars, StrategyParallel)
		if err != nil {
			t.Fatal(err)
		}
		if got.X.Cmp(first.X) != 0 || got.Y.Cmp(first.Y) != 0 {
			t.Fatalf("run %d: parallel result not deterministic", i)
		}
	}
}

// TestParallelSpeedupReport measures parallel vs sequential Pippenger at
// n=4096 and reports the ratio. The acceptance target (≥2× on a multi-core
// runner) is reported, not gated: CI runners vary too much to assert on.
func TestParallelSpeedupReport(t *testing.T) {
	if testing.Short() {
		t.Skip("timing report skipped in -short")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-core runner")
	}
	rng := rand.New(rand.NewSource(9007))
	c := Secp256k1()
	points, scalars := randomInputs(rng, c, 4096)

	start := time.Now()
	seq, err := c.MultiScalarMult(points, scalars, StrategyPippenger)
	if err != nil {
		t.Fatal(err)
	}
	seqDur := time.Since(start)

	start = time.Now()
	par, err := c.MultiScalarMult(points, scalars, StrategyParallel)
	if err != nil {
		t.Fatal(err)
	}
	parDur := time.Since(start)

	if !par.Equal(seq) {
		t.Fatal("parallel disagrees with sequential at n=4096")
	}
	t.Logf("n=4096 sequential=%v parallel=%v speedup=%.2fx (GOMAXPROCS=%d)",
		seqDur, parDur, float64(seqDur)/float64(parDur), runtime.GOMAXPROCS(0))
}

// TestFixedBaseReuse checks a FixedBase table is reusable across calls and
// concurrent readers: same table, different scalar vectors, same answers
// as the ad-hoc path.
func TestFixedBaseReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9008))
	c := Secp256k1()
	points, _ := randomInputs(rng, c, 16)
	bases := make([]*FixedBase, len(points))
	for i := range points {
		bases[i] = c.NewFixedBase(points[i])
	}
	for round := 0; round < 3; round++ {
		scalars := make([]*big.Int, len(points))
		for i := range scalars {
			scalars[i] = randScalar(rng, c)
		}
		want, err := c.MultiScalarMult(points, scalars, StrategyNaive)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.MultiScalarMultFixed(bases, scalars)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("round %d: fixed-base disagrees with naive", round)
		}
	}
}

func TestMultiScalarMultFixedErrors(t *testing.T) {
	c := Secp256k1()
	if _, err := c.MultiScalarMultFixed(nil, nil); err == nil {
		t.Fatal("expected error on empty input")
	}
	fb := c.NewFixedBase(c.generator())
	if _, err := c.MultiScalarMultFixed([]*FixedBase{fb}, nil); err == nil {
		t.Fatal("expected error on length mismatch")
	}
}

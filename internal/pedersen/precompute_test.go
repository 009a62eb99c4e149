package pedersen

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"ipls/internal/group"
	"ipls/internal/scalar"
)

// TestPrecomputedMatchesNaive checks the fixed-base commit path (both the
// auto route through the tables and an explicit StrategyPrecomputed
// request) against the naive recommitment on every curve.
func TestPrecomputedMatchesNaive(t *testing.T) {
	for _, curve := range []*group.Curve{group.Secp256k1(), group.Secp256r1(), group.Secp256r1Fast()} {
		p, err := Setup(curve, 24, "precomp")
		if err != nil {
			t.Fatal(err)
		}
		q, _ := scalar.NewQuantizer(p.Field(), scalar.DefaultShift)
		rng := rand.New(rand.NewSource(41))
		v := randomVector(rng, q, 24)
		want, err := p.CommitWith(v, group.StrategyNaive)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []group.MultiExpStrategy{group.StrategyPrecomputed, group.StrategyAuto, group.StrategyParallel} {
			got, err := p.CommitWith(v, s)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: strategy %v produced a different commitment", curve.Name, s)
			}
		}
	}
}

// TestPrecomputeLimit pins the table budget: Setup and Extend build tables
// for exactly the first min(L, commitFixedMax) generators on every curve,
// the prefix StrategyAuto reads (the Fig. 3 sweep must not drag megabytes
// of unread tables behind its 10M-generator Params), and a commit wider
// than that prefix falls back to the regular multiexp and verifies.
func TestPrecomputeLimit(t *testing.T) {
	for _, curve := range []*group.Curve{group.Secp256k1(), group.Secp256r1(), group.Secp256r1Fast()} {
		for _, n := range []int{0, 4, commitFixedMax, commitFixedMax + 1, 2 * commitFixedMax} {
			p, err := Setup(curve, n, "limit")
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(p.fixed), min(n, commitFixedMax); got != want {
				t.Fatalf("%s L=%d: %d precomputed tables after Setup, want %d", curve.Name, n, got, want)
			}
		}
	}

	p, err := Setup(group.Secp256k1(), 4, "limit")
	if err != nil {
		t.Fatal(err)
	}
	n := commitFixedMax + 4
	if err := p.Extend(n); err != nil {
		t.Fatal(err)
	}
	if got := len(p.fixed); got != commitFixedMax {
		t.Fatalf("expected tables capped at %d, got %d", commitFixedMax, got)
	}

	// A commit wider than the covered prefix must fall back and verify.
	q, _ := scalar.NewQuantizer(p.Field(), scalar.DefaultShift)
	rng := rand.New(rand.NewSource(42))
	v := randomVector(rng, q, n)
	c, err := p.Commit(v)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := p.Verify(v, c); err != nil || !ok {
		t.Fatalf("fallback commit failed verification: ok=%v err=%v", ok, err)
	}
	if got := len(p.fixed); got != commitFixedMax {
		t.Fatalf("auto commit past the prefix built tables: %d, want %d", got, commitFixedMax)
	}
}

// TestConcurrentCommitSharedParams is the race-detector coverage the ISSUE
// asks for: many goroutines committing through one Params (auto strategy,
// so the fixed tables and, for wide vectors, the parallel multiexp are all
// exercised) must neither race nor disagree.
func TestConcurrentCommitSharedParams(t *testing.T) {
	p, err := Setup(group.Secp256k1(), 16, "concurrent")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := scalar.NewQuantizer(p.Field(), scalar.DefaultShift)
	rng := rand.New(rand.NewSource(43))
	v := randomVector(rng, q, 16)
	want, err := p.Commit(v)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]Commitment, 16)
	errs := make([]error, 16)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = p.Commit(v)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !got[g].Equal(want) {
			t.Fatalf("goroutine %d produced a different commitment", g)
		}
	}
}

// TestExtendUnderConcurrentReaders extends Params while other goroutines
// commit and verify through it: no reader may ever observe a generator
// without its table (a half-built state would commit with a wrong point
// and fail verification).
func TestExtendUnderConcurrentReaders(t *testing.T) {
	p, err := Setup(group.Secp256k1(), 2, "extend-race")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := scalar.NewQuantizer(p.Field(), scalar.DefaultShift)
	rng := rand.New(rand.NewSource(44))
	vecs := make([][]*big.Int, 6)
	for i := range vecs {
		vecs[i] = randomVector(rng, q, 2+3*i) // widths force interleaved extension
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := vecs[(g+i)%len(vecs)]
				c, err := p.Commit(v)
				if err != nil {
					fail <- err.Error()
					return
				}
				ok, err := p.Verify(v, c)
				if err != nil {
					fail <- err.Error()
					return
				}
				if !ok {
					fail <- "commit under concurrent Extend failed verification"
					return
				}
			}
		}(g)
	}
	for n := 4; n <= 64; n *= 2 {
		if err := p.Extend(n); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
}

package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"time"

	"ipls/internal/cid"
	"ipls/internal/core"
	"ipls/internal/model"
	"ipls/internal/obs"
	"ipls/internal/storage"
)

// runOpts is what the command line decides about one run of one workload.
type runOpts struct {
	Seed int64
	// Window is how long the timed window lasts; Rounds > 0 replaces it
	// with a fixed round count (the smoke test and quick looks).
	Window time.Duration
	Rounds int
	// Setups is how many times the stack is built and warmed up; setup_s
	// is their median and the last stack runs the timed window.
	Setups int
	// Pairs is how many traced/untraced (and spans-on/off) round pairs
	// the traced run interleaves.
	Pairs int
	// Reps is the minimum number of repetitions behind a replay median;
	// a call is repeated beyond that until RepBudget has been measured.
	Reps      int
	RepBudget time.Duration
	// Precondition is how many blocks an fs-backed workload writes and
	// deletes before anything is measured; see preconditionDisk.
	Precondition int
	// OutDir receives the span dump and hosts the fs backend's blocks.
	OutDir string
}

// rssRounds is how many timed rounds contribute a resident-set sample: a
// fixed count, so that rss_mb_p50 does not depend on how many rounds the
// window holds (the mem store keeps every global update, so a faster tree
// would otherwise look fatter).
const rssRounds = 50

// preconditionDisk brings the disk under an fs-backed workload to the state
// sustained load leaves it in, by putting and deleting blocks through the
// store's own code path. On a journalling file system the first seconds of
// file churn after an idle period run measurably faster than the steady
// state (about 10 % of plain_tcp_fs's round on the ext4 volume this was
// written on), and whether a run starts idle depends on what ran before it.
func preconditionDisk(ctx context.Context, sh shape, opts runOpts) error {
	if sh.Backend != storage.BackendFS || opts.Precondition == 0 {
		return nil
	}
	dir, err := os.MkdirTemp(opts.OutDir, "precondition-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bs, err := storage.OpenFSStore(dir)
	if err != nil {
		return err
	}
	defer bs.Close()
	block := make([]byte, model.BlockSize(sh.PartitionLen()-1))
	cids := make([]cid.CID, opts.Precondition)
	for i := range cids {
		binary.BigEndian.PutUint64(block, uint64(i))
		if cids[i], err = bs.Put(ctx, block); err != nil {
			return err
		}
	}
	for _, c := range cids {
		if err := bs.Delete(ctx, c); err != nil {
			return err
		}
	}
	return nil
}

// runResult is the outcome of one run: the rounds it attempted, how many
// failed their check, and the metrics it measured.
type runResult struct {
	Attempted int
	Failed    int
	// Err is the first failure, for the operator.
	Err     string
	Metrics metrics
}

func (r *runResult) note(o roundOutcome) {
	r.Attempted++
	if o.err != nil {
		r.Failed++
		if r.Err == "" {
			r.Err = o.err.Error()
		}
	}
}

// warmStack builds a workload's deployment and runs the warm-up rounds,
// which fill the heap, the fs directory fan-out and the RPC codec caches.
func warmStack(ctx context.Context, sh shape, opts runOpts, pool *deltaPool, wrap wrapFunc, rec *recorder) (*stack, error) {
	st, err := buildStack(sh, opts.OutDir, wrap)
	if err != nil {
		return nil, err
	}
	for iter := 0; iter < warmupRounds; iter++ {
		if o := runRound(ctx, st, pool, iter, nil, rec); o.err != nil {
			st.Close()
			return nil, fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return st, nil
}

// runTimed measures the end-to-end metrics with no decorator installed:
// closed loop, one round in flight, the next round starting when the
// previous one (RunIteration then CleanupIteration) has returned.
func runTimed(ctx context.Context, sh shape, opts runOpts) (*runResult, error) {
	pool := newDeltaPool(opts.Seed, sh.taskSpec().Trainers, sh.ModelDim)
	if err := preconditionDisk(ctx, sh, opts); err != nil {
		return nil, err
	}

	// Set-up is measured several times because a single reading is one
	// sample of three warm-up rounds; garbage from the previous stack is
	// collected outside the measurement.
	var st *stack
	var setups []float64
	for i := 0; i < opts.Setups; i++ {
		if st != nil {
			st.Close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if st, err = warmStack(ctx, sh, opts, pool, nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.Close()

	res := &runResult{Metrics: metrics{"setup_s": median(setups)}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := obs.RuntimeMeter{}.Sample().CPUNanos
	var roundMS, rssMB []float64
	var aggErr float64
	start := time.Now()
	for iter := warmupRounds; ; iter++ {
		if opts.Rounds > 0 {
			if res.Attempted == opts.Rounds {
				break
			}
		} else if time.Since(start) >= opts.Window {
			break
		}
		o := runRound(ctx, st, pool, iter, nil, nil)
		res.note(o)
		if len(rssMB) < rssRounds {
			rssMB = append(rssMB, residentMB())
		}
		if o.err != nil {
			continue // a failed round has no latency figure
		}
		roundMS = append(roundMS, o.total.Seconds()*1e3)
		if o.aggErr > aggErr {
			aggErr = o.aggErr
		}
	}
	wall := time.Since(start).Seconds()
	cpu := float64(obs.RuntimeMeter{}.Sample().CPUNanos-cpu0) / 1e9
	runtime.ReadMemStats(&after)
	rounds := float64(res.Attempted)

	if len(roundMS) > 0 {
		sorted := sortedCopy(roundMS)
		res.Metrics["round_ms_p50"] = quantile(sorted, 1, 2)
		res.Metrics["round_ms_p90"] = quantile(sorted, 9, 10)
	}
	res.Metrics["rounds_per_s"] = float64(len(roundMS)) / wall
	res.Metrics["cpu_s_per_round"] = cpu / rounds
	res.Metrics["allocs_per_round"] = float64(after.Mallocs-before.Mallocs) / rounds
	res.Metrics["alloc_mb_per_round"] = float64(after.TotalAlloc-before.TotalAlloc) / rounds / 1e6
	res.Metrics["agg_err_max"] = aggErr

	if sh.Verifiable {
		// Sentinel: a cheating aggregator must be detected and the honest
		// peer must still deliver the right average, so a change that
		// skips verification fails the benchmark instead of winning it.
		cheat := map[string]core.Behavior{core.AggregatorID(0, 0): core.BehaviorAlterGradient}
		res.note(runRound(ctx, st, pool, warmupRounds+res.Attempted, cheat, nil))
	}
	res.Metrics["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	res.Metrics["rss_mb_p50"] = median(rssMB)
	return res, nil
}

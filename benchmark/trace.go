package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ipls/internal/obs"
)

// interleave alternates checked rounds, numbered from first, between two
// warmed stacks (b's recorded by rec when set) and returns each side's
// round times in ms.
// Running the sides in lock-step pairs, switching which goes first, makes
// their ratio insensitive to drift in the machine's speed.
func interleave(ctx context.Context, res *runResult, a, b *stack, pool *deltaPool, first, pairs int, rec *recorder) (aMS, bMS []float64) {
	for k := 0; k < pairs; k++ {
		iter := first + k
		var oa, ob roundOutcome
		if k%2 == 0 {
			oa = runRound(ctx, a, pool, iter, nil, nil)
			ob = runRound(ctx, b, pool, iter, nil, rec)
		} else {
			ob = runRound(ctx, b, pool, iter, nil, rec)
			oa = runRound(ctx, a, pool, iter, nil, nil)
		}
		res.note(oa)
		res.note(ob)
		if oa.err == nil && ob.err == nil {
			aMS = append(aMS, oa.total.Seconds()*1e3)
			bMS = append(bMS, ob.total.Seconds()*1e3)
		}
	}
	return aMS, bMS
}

// overheadPct is how much slower side b ran than side a: the median over
// the pairs of b/a - 1, in percent.
func overheadPct(aMS, bMS []float64) float64 {
	ratios := make([]float64, len(aMS))
	for i := range aMS {
		ratios[i] = (bMS[i]/aMS[i] - 1) * 100
	}
	return median(ratios)
}

// runTraced measures the per-layer metrics. It rebuilds the workload's
// stack with timing decorators around the storage.Client and Directory
// handed to NewSession, interleaves traced rounds with rounds on an
// undecorated twin (their ratio is the tracing overhead), does the same
// for the Session's own obs spans, replays each layer by direct calls, and
// finally writes the spans it kept in memory to OutDir.
func runTraced(ctx context.Context, sh shape, opts runOpts) (*runResult, error) {
	pool := newDeltaPool(opts.Seed, sh.taskSpec().Trainers, sh.ModelDim)
	res := &runResult{Metrics: metrics{}}
	if err := preconditionDisk(ctx, sh, opts); err != nil {
		return nil, err
	}

	bare, err := warmStack(ctx, sh, opts, pool, nil, nil)
	if err != nil {
		return nil, err
	}
	defer bare.Close()

	rec := newRecorder()
	traced, err := warmStack(ctx, sh, opts, pool, traceWrap(rec), rec)
	if err != nil {
		return nil, err
	}
	bareMS, tracedMS := interleave(ctx, res, bare, traced, pool, warmupRounds, opts.Pairs, rec)
	traced.Close()
	if len(tracedMS) == 0 {
		return res, nil // every pair failed; res says why
	}
	boundaryMetrics(res.Metrics, rec.spans)
	res.Metrics["core.trace_overhead_pct"] = overheadPct(bareMS, tracedMS)

	// The cost of the program's own instrumentation, as users switch it on.
	observed, err := warmStack(ctx, sh, opts, pool, nil, nil)
	if err != nil {
		return nil, err
	}
	observed.sess.SetSpans(obs.NewSpanCollector(0))
	observed.sess.SetResourceMeter(obs.RuntimeMeter{})
	bareMS, observedMS := interleave(ctx, res, bare, observed, pool, warmupRounds+opts.Pairs, opts.Pairs, nil)
	observed.Close()
	if len(observedMS) > 0 {
		res.Metrics["obs.span_overhead_pct"] = overheadPct(bareMS, observedMS)
	}

	// The high-water mark of a process that has run three stacks through a
	// fixed number of rounds. It varies by a tenth and more between runs
	// of the GC-heavy workloads, which is why it is not an end-to-end metric.
	res.Metrics["core.peak_rss_mb"] = peakRSSMB()

	if err := replayLayers(ctx, sh, bare, pool, opts, res.Metrics); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	return res, writeSpans(filepath.Join(opts.OutDir, sh.Name+".spans.jsonl"), rec.spans)
}

// interval is a half-open time range in recorder nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen is the total length the intervals cover, clipped to within.
func unionLen(ivs []interval, within interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	edge := within.lo
	for _, iv := range ivs {
		lo, hi := iv.lo, iv.hi
		if lo < edge {
			lo = edge
		}
		if hi > within.hi {
			hi = within.hi
		}
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return covered
}

// boundaryMetrics folds the spans of the measured traced rounds (warm-ups
// excluded) into per-round figures and stores each figure's median.
func boundaryMetrics(m metrics, spans []span) {
	type roundAgg struct {
		calls, failed map[string]float64 // by span name
		ms, bytes     map[string]float64
		fanin         float64
		emptyPolls    float64
		round         interval
		cleanupMS     float64
		children      []interval
	}
	rounds := map[int]*roundAgg{}
	for _, s := range spans {
		if s.Round < warmupRounds {
			continue
		}
		r := rounds[s.Round]
		if r == nil {
			r = &roundAgg{
				calls: map[string]float64{}, failed: map[string]float64{},
				ms: map[string]float64{}, bytes: map[string]float64{},
			}
			rounds[s.Round] = r
		}
		durMS := float64(s.EndNS-s.StartNS) / 1e6
		switch s.Name {
		case spanRound:
			r.round = interval{s.StartNS, s.EndNS}
			continue
		case spanCleanup:
			r.cleanupMS = durMS
			continue
		}
		if s.Parent == spanRound {
			r.children = append(r.children, interval{s.StartNS, s.EndNS})
		}
		r.calls[s.Name]++
		r.ms[s.Name] += durMS
		r.bytes[s.Name] += float64(s.Bytes)
		r.fanin += float64(s.Fanin)
		layer := s.Name[:strings.IndexByte(s.Name, '.')]
		if s.Failed {
			r.failed[layer]++
		}
		if s.Empty {
			r.emptyPolls++
		}
	}

	cols := map[string][]float64{}
	put := func(name string, v float64) { cols[name] = append(cols[name], v) }
	for _, r := range rounds {
		for _, op := range []string{"put", "get", "merge", "pubsub"} {
			put("storage."+op+"_calls", r.calls["storage."+op])
			put("storage."+op+"_ms", r.ms["storage."+op])
			if op != "pubsub" {
				put("storage."+op+"_bytes", r.bytes["storage."+op])
			}
		}
		if n := r.calls[spanMerge]; n > 0 {
			put("storage.merge_fanin", r.fanin/n)
		}
		put("storage.failed_calls", r.failed["storage"])
		for _, op := range []string{"publish", "poll", "verify", "accum"} {
			put("directory."+op+"_calls", r.calls["directory."+op])
			put("directory."+op+"_ms", r.ms["directory."+op])
		}
		if n := r.calls[spanPoll]; n > 0 {
			put("directory.poll_empty_share", r.emptyPolls/n)
		}
		put("directory.failed_calls", r.failed["directory"])

		roundNS := r.round.hi - r.round.lo
		union := unionLen(r.children, r.round)
		put("core.round_traced_ms", float64(roundNS)/1e6)
		put("core.boundary_union_ms", float64(union)/1e6)
		put("core.cleanup_ms", r.cleanupMS)
	}
	for name, col := range cols {
		m[name] = median(col)
	}
	// Self time is what no boundary call covers: quantize, encode, commit,
	// verify, sum and the poll sleeps. Taken between the two medians, so
	// that self + union = round holds in the reported numbers as it does
	// in every single round.
	m["core.self_ms"] = m["core.round_traced_ms"] - m["core.boundary_union_ms"]
}

// writeSpans dumps the traced run's spans, one JSON object per line.
func writeSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ipls/internal/core"
	"ipls/internal/storage"
)

// smokeOpts is every workload at a tiny shape: two timed rounds, two traced
// pairs and three replay repetitions keep the whole harness exercised in
// well under a second per workload.
func smokeOpts(t *testing.T) runOpts {
	return runOpts{Seed: 7, Rounds: 2, Setups: 1, Pairs: 2, Reps: 3, OutDir: t.TempDir()}
}

func tiny(sh shape) shape {
	sh.ModelDim = 16
	return sh
}

func TestSmokeAllWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, sh := range workloads {
		sh := tiny(sh)
		t.Run(sh.Name, func(t *testing.T) {
			opts := smokeOpts(t)
			timed, err := runTimed(ctx, sh, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantRounds := opts.Rounds
			if sh.Verifiable {
				wantRounds++ // the sentinel round
			}
			if timed.Failed != 0 || timed.Attempted != wantRounds {
				t.Fatalf("timed run: attempted %d (want %d), failed %d: %s", timed.Attempted, wantRounds, timed.Failed, timed.Err)
			}
			for _, spec := range endToEnd {
				v, ok := timed.Metrics[spec.Name]
				if !ok || math.IsNaN(v) || (spec.Contract && v <= 0) {
					t.Errorf("end-to-end metric %s = %v (present %v), want a positive reading", spec.Name, v, ok)
				}
			}
			if e := timed.Metrics["agg_err_max"]; e <= 0 || e > avgTolerance {
				t.Errorf("agg_err_max = %g, want within (0, %g]", e, avgTolerance)
			}

			traced, err := runTraced(ctx, sh, opts)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Failed != 0 {
				t.Fatalf("traced run: %d of %d rounds failed: %s", traced.Failed, traced.Attempted, traced.Err)
			}
			m := traced.Metrics
			for _, spec := range perLayer {
				if _, ok := m[spec.Name]; ok != measurable(spec.Name, sh) {
					t.Errorf("per-layer metric %s present=%v on %s", spec.Name, ok, sh.Name)
				}
			}
			// The common shape: 16 providers each pre-aggregate 2 gradients.
			if m["storage.merge_calls"] != 16 || m["storage.merge_fanin"] != 2 {
				t.Errorf("merge-and-download: %v calls of fan-in %v per round, want 16 of 2", m["storage.merge_calls"], m["storage.merge_fanin"])
			}
			if got, want := m["core.self_ms"]+m["core.boundary_union_ms"], m["core.round_traced_ms"]; math.Abs(got-want) > 1e-9 {
				t.Errorf("self + union = %v ms, round = %v ms", got, want)
			}
			if sh.Verifiable != (m["directory.verify_calls"] > 0) {
				t.Errorf("directory.verify_calls = %v in a round with Verifiable=%v", m["directory.verify_calls"], sh.Verifiable)
			}
			spans, err := os.ReadFile(filepath.Join(opts.OutDir, sh.Name+".spans.jsonl"))
			if err != nil || !bytes.Contains(spans, []byte(`"name":"core.round"`)) {
				t.Errorf("span dump missing or without round spans: %v", err)
			}
		})
	}
}

// measurable says whether a workload can measure a per-layer metric: the
// crypto replays need a verifiable round, the transport replay a TCP one.
func measurable(name string, sh shape) bool {
	switch layer := name[:strings.IndexByte(name, '.')]; {
	case layer == "transport":
		return sh.TCP
	case layer == "group", layer == "pedersen", name == "directory.publish_us", name == "directory.verify_partial_us":
		return sh.Verifiable
	}
	return true
}

// The decorators must offer the Session exactly the optional capabilities
// of the backend they wrap, or the traced run takes another protocol path.
func TestDecoratorsMirrorCapabilities(t *testing.T) {
	mem, err := buildStack(tiny(workloads[0]), t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	tcp, err := buildStack(tiny(workloads[1]), t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	rec := newRecorder()
	for _, backend := range []storage.Client{mem.net, tcp.cli} {
		wrapped, err := traceStore(backend, rec)
		if err != nil {
			t.Fatalf("%T: %v", backend, err)
		}
		if got, want := storeCapSet(wrapped), storeCapSet(backend); got != want || want != "Announcer,Fetch,MergeGetSpan,DeleteAll" {
			t.Errorf("%T: decorated capabilities %q, backend %q", backend, got, want)
		}
	}
	for backend, want := range map[core.Directory]string{
		mem.dir: "PublishBatch,Scheduler,RecordsForIter,ExpungeGradient,Quarantine",
		tcp.cli: "PublishBatch,Scheduler,RecordsForIter", // no expunge over the wire
	} {
		wrapped, err := traceDirectory(backend, rec)
		if err != nil {
			t.Fatalf("%T: %v", backend, err)
		}
		if got := dirCapSet(wrapped); got != want || dirCapSet(backend) != want {
			t.Errorf("%T: decorated capabilities %q, backend %q, want %q", backend, got, dirCapSet(backend), want)
		}
	}

	// A backend with fewer capabilities is refused, not silently upgraded
	// or downgraded.
	if _, err := traceStore(struct{ storage.Client }{mem.net}, rec); err == nil {
		t.Error("traceStore accepted a backend without the optional capabilities")
	}
	if _, err := traceDirectory(struct{ core.Directory }{mem.dir}, rec); err == nil {
		t.Error("traceDirectory accepted a backend without the optional capabilities")
	}
}

// BENCHMARK.json is written by hand; the program's tables are the source.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricJSON `json:"end_to_end"`
		PerLayer   []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: listed %q, defined %q (or their reasons differ)", i, w.Name, workloads[i].Name)
		}
	}
	check := func(kind string, listed []metricJSON, specs []metricSpec) {
		var want []metricJSON
		for _, s := range specs {
			if s.Contract {
				want = append(want, metricJSON{s.Name, s.Unit, s.Better, s.Bound})
			}
		}
		if len(listed) != len(want) {
			t.Errorf("%s: %d metrics listed, %d defined", kind, len(listed), len(want))
			return
		}
		for i := range want {
			if listed[i] != want[i] {
				t.Errorf("%s metric %d: listed %+v, defined %+v", kind, i, listed[i], want[i])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// The measuring process, as the driver runs it: the last line of standard
// output is one JSON object with exactly the contract's keys and metrics.
func TestMeasureProcessOutput(t *testing.T) {
	for trace, specs := range map[string][]metricSpec{"0": endToEnd, "1": perLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "plain_tcp_fs", "--seed", "3", "--seconds", "1", "--trace", trace, "-rounds", "2", "-dim", "16", "-out", t.TempDir()}
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var rep map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep) != 4 || rep["correct"] == nil || rep["attempted"] == nil || rep["failed"] == nil || rep["metrics"] == nil {
			t.Errorf("trace %s: report keys %v", trace, rep)
		}
		var got map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(rep["metrics"], &got); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range specs {
			if !s.Contract {
				continue
			}
			n++
			if v, ok := got[s.Name]; !ok || v.Value == nil || v.Unit != s.Unit {
				t.Errorf("trace %s: metric %s missing, null or in the wrong unit: %+v", trace, s.Name, v)
			}
		}
		if len(got) != n {
			t.Errorf("trace %s: %d metrics reported, %d in the contract", trace, len(got), n)
		}
	}
}

func TestRefusesMoreProcsThanCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	var stderr bytes.Buffer
	if code := realMain([]string{"-workload", "plain_mem", "-trace", "0", "-out", t.TempDir()}, &bytes.Buffer{}, &stderr); code == 0 {
		t.Error("ran with GOMAXPROCS above the CPU count")
	}
}

func TestQuantileFollowsPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for i, want := range []float64{2.75, 5.5, 8.25} {
		if got := quantile(v, i+1, 4); got != want {
			t.Errorf("quartile %d = %v, want %v", i+1, got, want)
		}
	}
	// statistics.quantiles([1, 2, 3], n=10)[8] == 3.6 (it extrapolates)
	if got := quantile([]float64{1, 2, 3}, 9, 10); got != 3.6 {
		t.Errorf("p90 of three = %v, want 3.6", got)
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestUnionLen(t *testing.T) {
	within := interval{100, 200}
	ivs := []interval{{150, 170}, {90, 120}, {110, 130}, {160, 165}, {190, 250}, {300, 400}}
	// [100,130) + [150,170) + [190,200) = 60
	if got := unionLen(ivs, within); got != 60 {
		t.Errorf("unionLen = %d, want 60", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "round_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rounds_per_s", Better: "higher", Bound: 0.10}
	exact := metricSpec{Name: "failed_share", Better: "lower", Bound: 0}
	steady := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	noisy := func(m float64) summary { return summary{Median: m, Q1: m * 0.9, Q3: m * 1.1} }
	for _, c := range []struct {
		spec metricSpec
		a, b summary
		want string
	}{
		{lower, steady(100), steady(105), verdictOK},
		{lower, steady(100), steady(111), verdictWorse},
		{lower, steady(100), steady(50), verdictOK},
		{lower, steady(100), noisy(100), verdictUnresolved},
		{higher, steady(10), steady(8.5), verdictWorse},
		{higher, steady(10), steady(12), verdictOK},
		{exact, steady(0), steady(0), verdictOK},
		{exact, steady(0), steady(0.01), verdictWorse},
	} {
		if _, got := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.spec.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

func TestDeltaPoolNeverRepeatsABlock(t *testing.T) {
	trainers := tiny(workloads[0]).taskSpec().Trainers
	pool := newDeltaPool(1, trainers, 16)
	seen := map[float64]bool{}
	for r := 0; r < 10; r++ {
		deltas, mean := pool.round(r)
		first := deltas[trainers[0]]
		if seen[first[0]] {
			t.Fatalf("round %d starts with a value an earlier round started with", r)
		}
		seen[first[0]] = true
		var sum float64
		for _, tr := range trainers {
			sum += deltas[tr][5]
		}
		if got := sum / float64(len(trainers)); got != mean[5] {
			t.Errorf("round %d: mean[5] = %v, deltas average %v", r, mean[5], got)
		}
	}
	if a, _ := newDeltaPool(1, trainers, 16).round(0); a[trainers[0]][0] != pool.doubled[0][0] {
		t.Error("the same seed gave different deltas")
	}
}

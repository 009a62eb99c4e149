package core

import (
	"testing"
	"time"

	"ipls/internal/netsim"
	"ipls/internal/obs"
)

// fig1Config reproduces the paper's Fig. 1 setup: 16 trainers, one
// aggregator, 1.3 MB partition, 10 Mbps links.
func fig1Config(providers int) SimConfig {
	return SimConfig{
		Trainers:                16,
		Partitions:              1,
		AggregatorsPerPartition: 1,
		PartitionBytes:          1_300_000,
		StorageNodes:            16,
		ProvidersPerAggregator:  providers,
		BandwidthMbps:           10,
	}
}

func TestSimUploadDelayDecreasesWithProviders(t *testing.T) {
	var prev time.Duration
	for i, p := range []int{1, 2, 4, 8, 16} {
		res, err := Simulate(fig1Config(p))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.UploadDelayMean >= prev {
			t.Fatalf("upload delay should shrink with providers: P=%d gave %v (prev %v)",
				p, res.UploadDelayMean, prev)
		}
		prev = res.UploadDelayMean
	}
}

func TestSimAggregationDelayGrowsWithProviders(t *testing.T) {
	// The paper's Fig. 1 top: aggregation delay (first hash written →
	// all aggregated) grows with the number of providers.
	var prev time.Duration
	for i, p := range []int{1, 2, 4, 8, 16} {
		res, err := Simulate(fig1Config(p))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.GradAggDelay < prev {
			t.Fatalf("aggregation delay should grow with providers: P=%d gave %v (prev %v)",
				p, res.GradAggDelay, prev)
		}
		prev = res.GradAggDelay
	}
}

func TestSimTotalDelayMinimizedNearSqrtT(t *testing.T) {
	// §III-E: the best provider count is ≈ √|T_ij| = 4 for 16 trainers
	// with equal bandwidths.
	best, bestP := time.Duration(1<<62), 0
	totals := make(map[int]time.Duration)
	for _, p := range []int{1, 2, 4, 8, 16} {
		res, err := Simulate(fig1Config(p))
		if err != nil {
			t.Fatal(err)
		}
		totals[p] = res.TotalDelay
		if res.TotalDelay < best {
			best, bestP = res.TotalDelay, p
		}
	}
	if bestP != 4 {
		t.Fatalf("optimum at P=%d, want 4 (totals: %v)", bestP, totals)
	}
	if opt := OptimalProviders(16, 10, 10); opt != 4 {
		t.Fatalf("analytic optimum = %v, want 4", opt)
	}
}

func TestSimNaiveIndirectSlowerThanDirectSlowerThanMerge(t *testing.T) {
	// The Fig. 1 comparison: naive indirect (no merge) pays for moving
	// every gradient twice; merge-and-download recovers the efficiency.
	naive := fig1Config(0)
	naive.StorageNodes = 8
	resNaive, err := Simulate(naive)
	if err != nil {
		t.Fatal(err)
	}
	direct := fig1Config(0)
	direct.Direct = true
	resDirect, err := Simulate(direct)
	if err != nil {
		t.Fatal(err)
	}
	mergeCfg := fig1Config(8)
	resMerge, err := Simulate(mergeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if resNaive.TotalDelay <= resDirect.TotalDelay {
		t.Fatalf("naive indirect (%v) should be slower than direct (%v)",
			resNaive.TotalDelay, resDirect.TotalDelay)
	}
	if resMerge.TotalDelay >= resNaive.TotalDelay {
		t.Fatalf("merge-and-download (%v) should beat naive indirect (%v)",
			resMerge.TotalDelay, resNaive.TotalDelay)
	}
	if resMerge.MergeDownloads == 0 {
		t.Fatal("merge mode issued no merge downloads")
	}
}

// fig2Config reproduces the paper's Fig. 2 setup: 16 trainers, 8 IPFS
// nodes, 4 partitions of 1.1 MB, 20 Mbps participant links, no
// merge-and-download. Storage nodes are well provisioned so that the
// participants' links are the bottleneck, as the paper's reported scaling
// implies.
func fig2Config(aggsPerPartition int) SimConfig {
	return SimConfig{
		Trainers:                16,
		Partitions:              4,
		AggregatorsPerPartition: aggsPerPartition,
		PartitionBytes:          1_100_000,
		StorageNodes:            8,
		ProvidersPerAggregator:  0,
		BandwidthMbps:           20,
		StorageBandwidthMbps:    200,
	}
}

func TestSimFig2BytesPerAggregator(t *testing.T) {
	// Fig. 2 bottom: D = (|T_ij| + |A_i| − 1) · PartitionSize.
	for _, a := range []int{1, 2, 4} {
		res, err := Simulate(fig2Config(a))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(16/a+a-1) * 1_100_000
		if res.BytesPerAggregator != want {
			t.Fatalf("|A_i|=%d: bytes per aggregator = %d, want %d",
				a, res.BytesPerAggregator, want)
		}
	}
}

func TestSimFig2TotalDelayDecreasesWithAggregators(t *testing.T) {
	// Fig. 2 top: gradient aggregation delay shrinks with |A_i| while
	// sync overhead grows, and the total still decreases.
	var prevTotal, prevSync time.Duration
	for i, a := range []int{1, 2, 4} {
		res, err := Simulate(fig2Config(a))
		if err != nil {
			t.Fatal(err)
		}
		total := res.GradAggDelay + res.SyncDelay
		if i > 0 {
			if total >= prevTotal {
				t.Fatalf("|A_i|=%d: total %v should be below %v", a, total, prevTotal)
			}
			if res.SyncDelay <= prevSync {
				t.Fatalf("|A_i|=%d: sync delay %v should grow (prev %v)", a, res.SyncDelay, prevSync)
			}
		}
		prevTotal, prevSync = total, res.SyncDelay
	}
}

func TestSimDeterministic(t *testing.T) {
	a, err := Simulate(fig2Config(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(fig2Config(2))
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("simulation not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestSimAnalyticModelMatchesSimulation(t *testing.T) {
	// §III-E: τ = S·(T/(dP) + P/b). The simulated total should track the
	// analytic model within ~25% across the sweep.
	for _, p := range []int{1, 2, 4, 8, 16} {
		res, err := Simulate(fig1Config(p))
		if err != nil {
			t.Fatal(err)
		}
		want := AnalyticAggregationDelay(1_300_000, 16, p, 10, 10)
		got := res.TotalDelay.Seconds()
		if got < want*0.75 || got > want*1.25 {
			t.Fatalf("P=%d: simulated %vs vs analytic %vs", p, got, want)
		}
	}
}

func TestSimLatency(t *testing.T) {
	base, err := Simulate(fig1Config(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fig1Config(4)
	cfg.LatencyMs = 50
	withLat, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withLat.TotalDelay <= base.TotalDelay {
		t.Fatal("latency should increase total delay")
	}
}

func TestSimStragglersDominateWithoutCutoff(t *testing.T) {
	base := fig1Config(4)
	fair, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	slow := base
	slow.SlowTrainers = 2
	slow.SlowFactor = 10
	res, err := Simulate(slow)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissedGradients != 0 {
		t.Fatal("no cutoff, nothing may be missed")
	}
	// Two 1-Mbps stragglers need 10.4s just to upload 1.3 MB, stretching
	// the iteration well past the fair-bandwidth completion time.
	if res.TotalDelay < fair.TotalDelay+3*time.Second {
		t.Fatalf("stragglers had too little effect: %v vs fair %v", res.TotalDelay, fair.TotalDelay)
	}
}

func TestSimTTrainCutoffBoundsIteration(t *testing.T) {
	fair, err := Simulate(fig1Config(4))
	if err != nil {
		t.Fatal(err)
	}
	slow := fig1Config(4)
	slow.SlowTrainers = 2
	slow.SlowFactor = 10
	// Cut off shortly after the fair-case completion time.
	slow.TTrainCutoff = fair.TotalDelay + time.Second
	res, err := Simulate(slow)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissedGradients != 2 {
		t.Fatalf("expected the 2 stragglers to miss, got %d", res.MissedGradients)
	}
	// The iteration now completes near the cutoff instead of waiting for
	// the stragglers.
	if res.TotalDelay > slow.TTrainCutoff+5*time.Second {
		t.Fatalf("cutoff did not bound the iteration: %v", res.TotalDelay)
	}
}

func TestSimValidation(t *testing.T) {
	bad := []SimConfig{
		{},
		{Trainers: 1, Partitions: 1, AggregatorsPerPartition: 1, PartitionBytes: 0, BandwidthMbps: 1, StorageNodes: 1},
		{Trainers: 1, Partitions: 1, AggregatorsPerPartition: 1, PartitionBytes: 1, BandwidthMbps: 0, StorageNodes: 1},
		{Trainers: 1, Partitions: 1, AggregatorsPerPartition: 1, PartitionBytes: 1, BandwidthMbps: 1, StorageNodes: 0},
		{Trainers: 1, Partitions: 1, AggregatorsPerPartition: 1, PartitionBytes: 1, BandwidthMbps: 1, StorageNodes: 1, ProvidersPerAggregator: 2},
		{Trainers: 1, Partitions: 1, AggregatorsPerPartition: 1, PartitionBytes: 1, BandwidthMbps: 1, StorageNodes: 1, SlowTrainers: 2, SlowFactor: 10},
		{Trainers: 2, Partitions: 1, AggregatorsPerPartition: 1, PartitionBytes: 1, BandwidthMbps: 1, StorageNodes: 1, SlowTrainers: 1, SlowFactor: 0.5},
	}
	for i, cfg := range bad {
		if _, err := Simulate(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestSimEmitsVirtualTimeSpans(t *testing.T) {
	col := obs.NewSpanCollector(0)
	cfg := fig1Config(2)
	cfg.Spans = col
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	spans := col.Spans()
	if len(spans) == 0 {
		t.Fatal("simulation emitted no spans")
	}
	epoch := time.Unix(0, 0).UTC()
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
		if s.Context.Session != "sim" || s.Context.Iter != 0 {
			t.Fatalf("span trace identity: %+v", s.Context)
		}
		// Virtual clock anchored at the epoch: every timestamp sits inside
		// [epoch, epoch+TotalDelay].
		if s.Start.Before(epoch) || s.End.After(epoch.Add(res.TotalDelay)) {
			t.Fatalf("span %s [%v,%v] outside virtual window ending %v",
				s.Name, s.Start, s.End, epoch.Add(res.TotalDelay))
		}
		if s.End.Before(s.Start) {
			t.Fatalf("span %s inverted", s.Name)
		}
	}
	if names["upload"] != cfg.Trainers {
		t.Fatalf("upload spans = %d, want %d", names["upload"], cfg.Trainers)
	}
	if names["aggregate"] != cfg.Partitions*cfg.AggregatorsPerPartition {
		t.Fatalf("aggregate spans = %d", names["aggregate"])
	}
	if names["merge_download"] != res.MergeDownloads {
		t.Fatalf("merge_download spans = %d, want %d", names["merge_download"], res.MergeDownloads)
	}

	// The spans assemble into trees: merge_download under fetch_gradients
	// under aggregate, with no orphans.
	tree := obs.BuildTree(spans, "sim", 0)
	if tree.Orphans != 0 {
		t.Fatalf("%d orphaned sim spans", tree.Orphans)
	}
	first := map[string]*obs.SpanNode{} // first node of each name, pre-order
	tree.Walk(func(n *obs.SpanNode, _ int) {
		if first[n.Span.Name] == nil {
			first[n.Span.Name] = n
		}
	})
	if first["aggregate"] == nil {
		t.Fatal("no aggregate tree")
	}
	fetch := first["fetch_gradients"]
	if fetch == nil || len(fetch.Children) == 0 {
		t.Fatal("merge_download not parented under fetch_gradients")
	}

	// Spans share the virtual timeline, so the breakdown's latency is the
	// simulated iteration duration, not wall time, and its critical path
	// tiles the traced window.
	b := obs.Breakdown(spans)
	if b.Latency <= 0 || b.Latency > res.TotalDelay {
		t.Fatalf("virtual latency %v vs total delay %v", b.Latency, res.TotalDelay)
	}
	var sum time.Duration
	for _, p := range b.Phases {
		sum += p.Duration
	}
	if sum != b.Latency {
		t.Fatalf("sim phases sum to %v, latency %v", sum, b.Latency)
	}
}

func TestSimLinkLossDelaysIteration(t *testing.T) {
	baseline, err := Simulate(fig1Config(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fig1Config(4)
	// Sever a provider's links for two virtual seconds mid-iteration:
	// merges through it stall, so the iteration must finish later.
	cfg.LinkLoss = []netsim.LossWindow{
		{Node: "ipfs-00", From: 500 * time.Millisecond, To: 2500 * time.Millisecond, Factor: 0},
	}
	degraded, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.TotalDelay <= baseline.TotalDelay {
		t.Fatalf("link loss did not slow the iteration: %v vs baseline %v",
			degraded.TotalDelay, baseline.TotalDelay)
	}
	// Determinism: the same degraded schedule reproduces exactly.
	again, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.TotalDelay != degraded.TotalDelay {
		t.Fatalf("degraded run not reproducible: %v vs %v", again.TotalDelay, degraded.TotalDelay)
	}
	if _, err := Simulate(SimConfig{
		Trainers: 1, Partitions: 1, AggregatorsPerPartition: 1,
		PartitionBytes: 1000, StorageNodes: 1, BandwidthMbps: 10,
		LinkLoss: []netsim.LossWindow{{Node: "ghost", From: 0, To: time.Second, Factor: 0.5}},
	}); err == nil {
		t.Fatal("unknown link-loss node accepted")
	}
}

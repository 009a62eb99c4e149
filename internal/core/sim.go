package core

import (
	"fmt"
	"math"
	"time"

	"ipls/internal/netsim"
	"ipls/internal/obs"
	"ipls/internal/scenario"
)

// SimConfig parameterizes a virtual-time protocol run over the netsim
// emulator, mirroring the paper's mininet experiments (§V). The simulation
// models the byte flows of one FL iteration; cryptographic costs are
// measured separately (Fig. 3) exactly as the paper does.
type SimConfig struct {
	// Trainers is the number of trainers (the paper uses 16).
	Trainers int
	// Partitions is the number of model partitions.
	Partitions int
	// AggregatorsPerPartition is |A_i|.
	AggregatorsPerPartition int
	// PartitionBytes is the size of one gradient partition block.
	PartitionBytes int64
	// StorageNodes is the number of IPFS nodes in the network.
	StorageNodes int
	// ProvidersPerAggregator is |P_ij| for merge-and-download; 0 disables
	// merging (each gradient is downloaded individually).
	ProvidersPerAggregator int
	// BandwidthMbps is every participant's up/down link capacity
	// ("aggregators and trainers have the same network bandwidth").
	BandwidthMbps float64
	// StorageBandwidthMbps is the storage nodes' link capacity; zero
	// means the same as BandwidthMbps. The Fig. 1 provider-congestion
	// experiment constrains it (it is the d in τ = S·(T/(dP) + P/b));
	// the Fig. 2 experiment assumes well-provisioned IPFS nodes so that
	// the aggregators' own links are the bottleneck.
	StorageBandwidthMbps float64
	// Direct bypasses the storage network entirely: trainers send
	// gradients straight to their aggregator (the original IPLS [17]
	// used as the "direct" baseline in Fig. 1).
	Direct bool
	// LatencyMs adds fixed per-transfer latency.
	LatencyMs float64
	// SlowTrainers marks the first N trainers as stragglers whose links
	// run SlowFactor times slower than everyone else's.
	SlowTrainers int
	// SlowFactor is the straggler slowdown (e.g. 10 = one tenth of the
	// bandwidth). Ignored when SlowTrainers is zero.
	SlowFactor float64
	// TTrainCutoff, when positive, makes aggregators stop waiting for
	// missing gradients at that virtual time — the t_train schedule of
	// §III-D. Gradients that miss the cutoff are excluded from the
	// aggregate (and counted in SimResult.MissedGradients).
	TTrainCutoff time.Duration
	// QuorumFraction, when in (0,1), lets every gradient wait close at
	// ceil(q·n)-of-n arrivals once the virtual clock passes QuorumWait —
	// the quorum-round analogue of TTrainCutoff. Arrivals beyond the
	// quorum that never land count as missed. Takes precedence over
	// TTrainCutoff when both are set.
	QuorumFraction float64
	// QuorumWait is the virtual instant after which a quorum suffices;
	// zero defaults to 1s.
	QuorumWait time.Duration
	// LinkLoss schedules capacity-degradation windows on simulated links
	// (scenario.Plan.LossWindows compiles them from a plan's timed
	// windows). Node names follow the simulation's own scheme:
	// trainer-00, agg-p0-0, ipfs-00.
	LinkLoss []netsim.LossWindow
	// Churn applies a plan's membership events (depart/crash/rejoin) to
	// the single simulated iteration (event windows are ignored). Departed or crashed storage
	// nodes drop out of placement for the whole run, a crashed
	// aggregator's role is executed by a live standby after
	// FailoverTimeout, crashed trainers miss the iteration (their
	// gradients count as missed), and a rejoining trainer first
	// downloads the model checkpoint from storage before uploading.
	// Node names follow the simulation's scheme above.
	Churn []scenario.Event
	// FailoverTimeout is how long (virtual time) a standby waits for a
	// crashed aggregator before taking over; zero defaults to 1s.
	FailoverTimeout time.Duration
	// Metrics, when non-nil, receives the simulated flow counters under
	// the same names real runs use (bytes_uploaded_total{node=...} etc.),
	// so snapshots from simulated and emulated experiments line up.
	Metrics *obs.Registry
	// Spans, when non-nil, receives per-role causal spans (upload,
	// aggregate, merge_download, sync_wait) in virtual time under the
	// trace (session "sim", iter 0).
	Spans obs.SpanSink
}

func (c SimConfig) validate() error {
	if c.Trainers <= 0 || c.Partitions <= 0 || c.AggregatorsPerPartition <= 0 {
		return fmt.Errorf("core: sim needs positive trainers/partitions/aggregators")
	}
	if c.PartitionBytes <= 0 {
		return fmt.Errorf("core: sim needs positive partition size")
	}
	if c.BandwidthMbps <= 0 {
		return fmt.Errorf("core: sim needs positive bandwidth")
	}
	if !c.Direct && c.StorageNodes <= 0 {
		return fmt.Errorf("core: sim needs storage nodes unless direct")
	}
	if c.ProvidersPerAggregator > c.StorageNodes {
		return fmt.Errorf("core: more providers (%d) than storage nodes (%d)",
			c.ProvidersPerAggregator, c.StorageNodes)
	}
	if c.SlowTrainers < 0 || c.SlowTrainers > c.Trainers {
		return fmt.Errorf("core: %d slow trainers out of %d", c.SlowTrainers, c.Trainers)
	}
	if c.SlowTrainers > 0 && c.SlowFactor <= 1 {
		return fmt.Errorf("core: slow factor must exceed 1, got %v", c.SlowFactor)
	}
	if c.QuorumFraction < 0 || c.QuorumFraction >= 1 {
		if c.QuorumFraction != 0 {
			return fmt.Errorf("core: quorum fraction must be in (0,1), got %v", c.QuorumFraction)
		}
	}
	return nil
}

// SimResult reports the delay and traffic measurements of one simulated
// iteration, using the paper's definitions:
//
//   - Upload delay (Fig. 1 bottom): per-trainer time from starting to
//     upload gradients until the storage acknowledgment.
//   - Aggregation delay (Fig. 1 top): from the first gradient hash written
//     to the directory until all gradients are aggregated (max over
//     aggregators).
//   - Sync delay (Fig. 2): the additional time aggregators spend
//     exchanging partial updates.
type SimResult struct {
	UploadDelayMean time.Duration
	UploadDelayMax  time.Duration
	FirstPublish    time.Duration
	GradAggDelay    time.Duration // aggregation delay, paper's definition
	SyncDelay       time.Duration
	TotalDelay      time.Duration // start of iteration → all partitions globally updated
	// BytesPerAggregator is the mean data volume an aggregator received
	// (Fig. 2 bottom; D = (|T_ij| + |A_i| - 1) · PartitionSize).
	BytesPerAggregator int64
	// MergeDownloads counts merge-and-download requests issued.
	MergeDownloads int
	// MissedGradients counts gradients excluded because they missed the
	// t_train cutoff (including those of churn-crashed trainers).
	MissedGradients int
	// Takeovers counts crashed aggregator roles executed by a standby;
	// Bootstraps counts rejoining trainers that downloaded the checkpoint.
	Takeovers  int
	Bootstraps int
}

// Simulate runs one protocol iteration in virtual time and measures it.
func Simulate(cfg SimConfig) (*SimResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	churn, err := newSimChurn(cfg)
	if err != nil {
		return nil, err
	}
	failover := cfg.FailoverTimeout
	if failover <= 0 {
		failover = time.Second
	}
	env := netsim.NewEnv()
	if cfg.Metrics != nil {
		env.SetMetrics(cfg.Metrics)
	}
	if cfg.LatencyMs > 0 {
		env.SetLatency(time.Duration(cfg.LatencyMs * float64(time.Millisecond)))
	}
	bw := netsim.Mbps(cfg.BandwidthMbps)

	trainers := make([]*netsim.Node, cfg.Trainers)
	for i := range trainers {
		tbw := bw
		if i < cfg.SlowTrainers {
			tbw = bw / cfg.SlowFactor
		}
		trainers[i] = env.AddNode(fmt.Sprintf("trainer-%02d", i), tbw, tbw)
	}
	aggs := make([][]*netsim.Node, cfg.Partitions) // [partition][j]
	for p := range aggs {
		aggs[p] = make([]*netsim.Node, cfg.AggregatorsPerPartition)
		for j := range aggs[p] {
			aggs[p][j] = env.AddNode(fmt.Sprintf("agg-p%d-%d", p, j), bw, bw)
		}
	}
	storeBw := bw
	if cfg.StorageBandwidthMbps > 0 {
		storeBw = netsim.Mbps(cfg.StorageBandwidthMbps)
	}
	var stores []*netsim.Node
	for i := 0; i < cfg.StorageNodes; i++ {
		stores = append(stores, env.AddNode(fmt.Sprintf("ipfs-%02d", i), storeBw, storeBw))
	}
	for _, w := range cfg.LinkLoss {
		if err := env.ScheduleLinkLoss(w); err != nil {
			return nil, err
		}
	}
	var liveStores []int
	for i := 0; i < cfg.StorageNodes; i++ {
		if !churn.downStores[i] {
			liveStores = append(liveStores, i)
		}
	}
	if !cfg.Direct && len(liveStores) == 0 {
		return nil, fmt.Errorf("core: sim churn: every storage node is down")
	}
	// place deterministically redirects a placement choice away from
	// down storage nodes — the sim analogue of replicaTargets skipping
	// departed members.
	place := func(n int) int {
		if !churn.downStores[n] {
			return n
		}
		return liveStores[n%len(liveStores)]
	}

	// assignment: trainer t's aggregator index for every partition.
	aggOf := func(t int) int { return t % cfg.AggregatorsPerPartition }
	// trainersOf[j] lists trainer indices in T_ij (same for every
	// partition, matching NewConfig's round-robin).
	trainersOf := make([][]int, cfg.AggregatorsPerPartition)
	for t := 0; t < cfg.Trainers; t++ {
		j := aggOf(t)
		trainersOf[j] = append(trainersOf[j], t)
	}
	// providerOf returns the storage node index holding trainer t's
	// gradient for (partition p, aggregator j).
	merge := cfg.ProvidersPerAggregator > 0
	providerOf := func(p, j, t int) int {
		if merge {
			// Aggregator (p, j) owns a contiguous provider group.
			base := (p*cfg.AggregatorsPerPartition + j) * cfg.ProvidersPerAggregator
			slot := 0
			for i, tt := range trainersOf[j] {
				if tt == t {
					slot = i
					break
				}
			}
			return place((base + slot%cfg.ProvidersPerAggregator) % cfg.StorageNodes)
		}
		return place((t + p) % cfg.StorageNodes)
	}
	// liveOf is trainersOf[j] minus the trainers the churn plan crashed.
	liveOf := func(j int) []int {
		if len(churn.crashedTrainers) == 0 {
			return trainersOf[j]
		}
		var live []int
		for _, t := range trainersOf[j] {
			if !churn.crashedTrainers[t] {
				live = append(live, t)
			}
		}
		return live
	}

	var (
		firstPublish    = time.Duration(math.MaxInt64)
		uploadDone      = make([]time.Duration, cfg.Trainers)
		gradDone        time.Duration // max over aggregators
		syncDone        time.Duration
		totalDone       time.Duration
		mergeDownloads  int
		aggregatorBytes int64
		takeovers       int
		bootstraps      int
	)

	// Arrival trackers: one per-gradient counter (so naive downloads can
	// start the moment a gradient lands) and one per provider group (for
	// merge-and-download), plus per-aggregator counters in direct mode.
	type slotKey struct{ p, j, node int }
	gradArrived := make(map[[2]int]*netsim.Counter) // (p, t)
	arrived := make(map[slotKey]*netsim.Counter)
	expected := make(map[slotKey]int)
	directArrived := make(map[[2]int]*netsim.Counter) // (p, j) for direct mode
	for p := 0; p < cfg.Partitions; p++ {
		for t := 0; t < cfg.Trainers; t++ {
			gradArrived[[2]int{p, t}] = env.NewCounter(1)
		}
		for j := 0; j < cfg.AggregatorsPerPartition; j++ {
			if cfg.Direct {
				directArrived[[2]int{p, j}] = env.NewCounter(len(liveOf(j)))
				continue
			}
			for _, t := range liveOf(j) {
				k := slotKey{p, j, providerOf(p, j, t)}
				expected[k]++
			}
		}
	}
	for k, n := range expected {
		arrived[k] = env.NewCounter(n)
	}
	// Observability: simulated runs emit the same span trees real runs do,
	// stamped with the virtual clock anchored at the Unix epoch.
	simClock := env.Clock(time.Unix(0, 0).UTC())
	emitSpan := func(name, actor string, ctx obs.SpanContext, start time.Time, bytes int64) {
		if cfg.Spans == nil || !ctx.Valid() {
			return
		}
		// Simulated spans charge the deterministic resource model rather
		// than sampling the host process, so the cpu/alloc budget
		// dimensions gate byte-identically run after run.
		cpu, alloc := netsim.ModelCost(bytes)
		cfg.Spans.EmitSpan(obs.Span{
			Name: name, Actor: actor, Context: ctx,
			Start: start, End: simClock(), Bytes: bytes,
			CPUNanos: cpu, AllocBytes: alloc,
		})
	}
	simRoot := func() obs.SpanContext {
		return obs.SpanContext{Session: "sim", SpanID: obs.NewSpanID()}
	}

	cutoff := cfg.TTrainCutoff
	quorumWait := cfg.QuorumWait
	if quorumWait <= 0 {
		quorumWait = time.Second
	}
	// Crashed trainers' gradients are missed by definition.
	missed := cfg.Partitions * len(churn.crashedTrainers)
	// waitArrival waits for a counter, honoring the quorum setting or the
	// t_train cutoff, and reports whether the full target was reached.
	waitArrival := func(c *netsim.Counter) bool {
		if cfg.QuorumFraction > 0 {
			need := int(math.Ceil(cfg.QuorumFraction * float64(c.Target())))
			if need < 1 {
				need = 1
			}
			return c.WaitQuorum(need, quorumWait)
		}
		if cutoff > 0 {
			return c.WaitDeadline(cutoff)
		}
		c.Wait()
		return true
	}

	// Partial-update availability signals for the sync phase.
	partialReady := make(map[[2]int]*netsim.Signal) // (p, owner j)
	for p := 0; p < cfg.Partitions; p++ {
		for j := 0; j < cfg.AggregatorsPerPartition; j++ {
			partialReady[[2]int{p, j}] = env.NewSignal()
		}
	}

	// Trainer processes: upload every partition's gradient. Crashed
	// trainers never start; rejoining trainers bootstrap the checkpoint
	// (the full model, one partition block per partition) from storage
	// before their first upload — the §VI joining-party path.
	for t := 0; t < cfg.Trainers; t++ {
		if churn.crashedTrainers[t] {
			continue
		}
		t := t
		env.Go(fmt.Sprintf("trainer-%d", t), func() {
			if churn.rejoinTrainers[t] {
				bCtx := simRoot()
				bStart := simClock()
				ckBytes := cfg.PartitionBytes * int64(cfg.Partitions)
				env.Transfer(stores[place(t%cfg.StorageNodes)], trainers[t], ckBytes)
				bootstraps++
				emitSpan("bootstrap", trainers[t].Name, bCtx, bStart, ckBytes)
			}
			upCtx := simRoot()
			upStart := simClock()
			for p := 0; p < cfg.Partitions; p++ {
				j := aggOf(t)
				if cfg.Direct {
					env.Transfer(trainers[t], aggs[p][j], cfg.PartitionBytes)
					if env.Now() < firstPublish {
						firstPublish = env.Now()
					}
					directArrived[[2]int{p, j}].Add()
				} else {
					dst := stores[providerOf(p, j, t)]
					env.Transfer(trainers[t], dst, cfg.PartitionBytes)
					if env.Now() < firstPublish {
						firstPublish = env.Now()
					}
					arrived[slotKey{p, j, providerOf(p, j, t)}].Add()
					gradArrived[[2]int{p, t}].Add()
				}
			}
			uploadDone[t] = env.Now()
			emitSpan("upload", trainers[t].Name, upCtx, upStart, cfg.PartitionBytes*int64(cfg.Partitions))
		})
	}

	// Aggregator processes. Crashed aggregators never start; a standby
	// covers them below.
	for p := 0; p < cfg.Partitions; p++ {
		for j := 0; j < cfg.AggregatorsPerPartition; j++ {
			if churn.crashedAggs[[2]int{p, j}] {
				continue
			}
			p, j := p, j
			agg := aggs[p][j]
			env.Go(agg.Name, func() {
				aggCtx := simRoot()
				aggStart := simClock()
				fetchCtx := aggCtx.Child()
				fetchStart := simClock()
				// Phase 1: obtain all of T_ij's gradients (or those that
				// made the t_train cutoff). The arrival wait is spanned
				// separately (upload_wait) from the transfer that follows,
				// so the critical-path breakdown splits the upload-bound
				// stretch from the download itself — the axes of Figs. 5-7.
				if cfg.Direct {
					ctr := directArrived[[2]int{p, j}]
					waitStart := simClock()
					ok := waitArrival(ctr)
					emitSpan("upload_wait", agg.Name, fetchCtx.Child(), waitStart, 0)
					if !ok {
						missed += len(liveOf(j)) - ctr.Count()
					}
				} else if merge {
					// One concurrent merge-download per provider group,
					// in deterministic node order.
					seen := make(map[int]bool)
					var groups []int
					for _, t := range liveOf(j) {
						n := providerOf(p, j, t)
						if !seen[n] {
							seen[n] = true
							groups = append(groups, n)
						}
					}
					done := env.NewCounter(len(groups))
					for _, node := range groups {
						node := node
						env.Go(fmt.Sprintf("merge-p%d-%d-n%d", p, j, node), func() {
							mdCtx := fetchCtx.Child()
							mdStart := simClock()
							ctr := arrived[slotKey{p, j, node}]
							waitStart := simClock()
							ok := waitArrival(ctr)
							emitSpan("upload_wait", stores[node].Name, mdCtx.Child(), waitStart, 0)
							if !ok {
								missed += expected[slotKey{p, j, node}] - ctr.Count()
							}
							if ctr.Count() > 0 {
								// The provider returns one pre-aggregated
								// partition-sized block over what arrived.
								env.Transfer(stores[node], agg, cfg.PartitionBytes)
								mergeDownloads++
								emitSpan("merge_download", stores[node].Name, mdCtx, mdStart, cfg.PartitionBytes)
							}
							done.Add()
						})
					}
					done.Wait()
				} else {
					// Download each gradient individually as it lands.
					done := env.NewCounter(len(liveOf(j)))
					for _, t := range liveOf(j) {
						t := t
						node := providerOf(p, j, t)
						env.Go(fmt.Sprintf("dl-p%d-%d-t%d", p, j, t), func() {
							dlCtx := fetchCtx.Child()
							dlStart := simClock()
							ok := waitArrival(gradArrived[[2]int{p, t}])
							emitSpan("upload_wait", trainers[t].Name, dlCtx.Child(), dlStart, 0)
							if ok {
								env.Transfer(stores[node], agg, cfg.PartitionBytes)
								emitSpan("download", stores[node].Name, dlCtx, dlStart, cfg.PartitionBytes)
							} else {
								missed++
							}
							done.Add()
						})
					}
					done.Wait()
				}
				if env.Now() > gradDone {
					gradDone = env.Now()
				}
				emitSpan("fetch_gradients", agg.Name, fetchCtx, fetchStart, 0)

				// Phase 2: multi-aggregator sync via the storage network.
				if cfg.AggregatorsPerPartition > 1 && !cfg.Direct {
					syncStart := simClock()
					home := stores[place((p*cfg.AggregatorsPerPartition+j)%len(stores))]
					env.Transfer(agg, home, cfg.PartitionBytes)
					partialReady[[2]int{p, j}].Fire()
					done := env.NewCounter(cfg.AggregatorsPerPartition - 1)
					for k := 0; k < cfg.AggregatorsPerPartition; k++ {
						if k == j {
							continue
						}
						k := k
						env.Go(fmt.Sprintf("sync-p%d-%d-from%d", p, j, k), func() {
							partialReady[[2]int{p, k}].Wait()
							peerHome := stores[place((p*cfg.AggregatorsPerPartition+k)%len(stores))]
							env.Transfer(peerHome, agg, cfg.PartitionBytes)
							done.Add()
						})
					}
					done.Wait()
					emitSpan("sync_wait", agg.Name, aggCtx.Child(), syncStart, 0)
				}
				if env.Now() > syncDone {
					syncDone = env.Now()
				}
				if env.Now() > totalDone {
					totalDone = env.Now()
				}
				emitSpan("aggregate", agg.Name, aggCtx, aggStart, agg.BytesReceived)
			})
		}
	}

	// Standby processes: one per crashed aggregator. The standby (a live
	// aggregator from elsewhere) waits out the failover timeout, then
	// executes the crashed role — gradient downloads over its own link,
	// partial publish and peer sync — the §III-D takeover generalized
	// across partitions.
	standbyFor := func(p int) (*netsim.Node, bool) {
		var fallback *netsim.Node
		for pp := 0; pp < cfg.Partitions; pp++ {
			for jj := 0; jj < cfg.AggregatorsPerPartition; jj++ {
				if churn.crashedAggs[[2]int{pp, jj}] {
					continue
				}
				if pp != p {
					return aggs[pp][jj], true
				}
				if fallback == nil {
					fallback = aggs[pp][jj]
				}
			}
		}
		return fallback, fallback != nil
	}
	for p := 0; p < cfg.Partitions; p++ {
		for j := 0; j < cfg.AggregatorsPerPartition; j++ {
			if !churn.crashedAggs[[2]int{p, j}] {
				continue
			}
			standby, ok := standbyFor(p)
			if !ok {
				return nil, fmt.Errorf("core: sim churn: no live aggregator left to take over agg-p%d-%d", p, j)
			}
			p, j := p, j
			env.Go(fmt.Sprintf("standby-p%d-%d", p, j), func() {
				env.Sleep(failover)
				toCtx := simRoot()
				toStart := simClock()
				var got int64
				if cfg.Direct {
					for _, t := range liveOf(j) {
						env.Transfer(trainers[t], standby, cfg.PartitionBytes)
						got += cfg.PartitionBytes
					}
				} else if merge {
					seen := make(map[int]bool)
					for _, t := range liveOf(j) {
						node := providerOf(p, j, t)
						if seen[node] {
							continue
						}
						seen[node] = true
						ctr := arrived[slotKey{p, j, node}]
						waitArrival(ctr)
						if ctr.Count() > 0 {
							env.Transfer(stores[node], standby, cfg.PartitionBytes)
							mergeDownloads++
							got += cfg.PartitionBytes
						}
					}
				} else {
					for _, t := range liveOf(j) {
						if waitArrival(gradArrived[[2]int{p, t}]) {
							env.Transfer(stores[providerOf(p, j, t)], standby, cfg.PartitionBytes)
							got += cfg.PartitionBytes
						}
					}
				}
				if env.Now() > gradDone {
					gradDone = env.Now()
				}
				if cfg.AggregatorsPerPartition > 1 && !cfg.Direct {
					home := stores[place((p*cfg.AggregatorsPerPartition+j)%len(stores))]
					env.Transfer(standby, home, cfg.PartitionBytes)
					partialReady[[2]int{p, j}].Fire()
					for k := 0; k < cfg.AggregatorsPerPartition; k++ {
						if k == j {
							continue
						}
						partialReady[[2]int{p, k}].Wait()
						peerHome := stores[place((p*cfg.AggregatorsPerPartition+k)%len(stores))]
						env.Transfer(peerHome, standby, cfg.PartitionBytes)
						got += cfg.PartitionBytes
					}
				}
				takeovers++
				if env.Now() > syncDone {
					syncDone = env.Now()
				}
				if env.Now() > totalDone {
					totalDone = env.Now()
				}
				emitSpan("takeover", standby.Name, toCtx, toStart, got)
			})
		}
	}

	if err := env.Run(); err != nil {
		return nil, err
	}

	res := &SimResult{
		FirstPublish: firstPublish, MergeDownloads: mergeDownloads, MissedGradients: missed,
		Takeovers: takeovers, Bootstraps: bootstraps,
	}
	var sum time.Duration
	for _, d := range uploadDone {
		sum += d
		if d > res.UploadDelayMax {
			res.UploadDelayMax = d
		}
	}
	res.UploadDelayMean = sum / time.Duration(cfg.Trainers)
	res.GradAggDelay = gradDone - firstPublish
	if cfg.AggregatorsPerPartition > 1 {
		res.SyncDelay = syncDone - gradDone
	}
	res.TotalDelay = totalDone
	var aggBytes int64
	count := 0
	for p := range aggs {
		for _, a := range aggs[p] {
			aggBytes += a.BytesReceived
			count++
		}
	}
	aggregatorBytes = aggBytes / int64(count)
	res.BytesPerAggregator = aggregatorBytes
	return res, nil
}

// AnalyticAggregationDelay evaluates the paper's §III-E model
// τ = S · (|T_ij|/(d·|P_ij|) + |P_ij|/b) in seconds, with d and b in Mbps
// and S in bytes.
func AnalyticAggregationDelay(partitionBytes int64, trainersPerAgg, providers int, dMbps, bMbps float64) float64 {
	s := float64(partitionBytes) * 8
	return s*float64(trainersPerAgg)/(netsim.Mbps(dMbps)*float64(providers)) +
		s*float64(providers)/netsim.Mbps(bMbps)
}

// OptimalProviders returns the paper's √(b·|T_ij|/d) optimum for |P_ij|.
func OptimalProviders(trainersPerAgg int, dMbps, bMbps float64) float64 {
	return math.Sqrt(bMbps * float64(trainersPerAgg) / dMbps)
}

// Command iplsd runs the protocol's roles as separate networked processes,
// communicating over TCP — the deployment the paper targets, where the
// task launcher (bootstrapper) hosts only the lightweight directory while
// trainers and aggregators run elsewhere.
//
// All parties must be started with identical task flags; the configuration
// (partitioning, T_ij assignments, providers) is derived deterministically
// from them, so no extra coordination channel is needed.
//
//	iplsd serve      -listen 127.0.0.1:7000 [task flags]
//	iplsd trainer    -addr 127.0.0.1:7000 -index 0 [task flags]
//	iplsd aggregator -addr 127.0.0.1:7000 -partition 0 -slot 0 [task flags]
//
// A single-process demo of the same wiring:
//
//	iplsd demo [task flags]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"ipls/internal/core"
	"ipls/internal/directory"
	"ipls/internal/identity"
	"ipls/internal/ml"
	"ipls/internal/obs"
	"ipls/internal/scalar"
	"ipls/internal/storage"
	"ipls/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "iplsd:", err)
		os.Exit(1)
	}
}

// taskFlags holds the flags every party must share.
type taskFlags struct {
	task        string
	trainers    int
	partitions  int
	aggregators int
	storage     int
	providers   int
	verifiable  bool
	signed      bool
	curve       string
	rounds      int
	seed        int64
	lr          float64
	epochs      int
	batch       int
}

func registerTaskFlags(fs *flag.FlagSet) *taskFlags {
	tf := &taskFlags{}
	fs.StringVar(&tf.task, "task", "iplsd-task", "task identifier (shared)")
	fs.IntVar(&tf.trainers, "trainers", 4, "number of trainers (shared)")
	fs.IntVar(&tf.partitions, "partitions", 2, "model partitions (shared)")
	fs.IntVar(&tf.aggregators, "aggregators", 1, "aggregators per partition (shared)")
	fs.IntVar(&tf.storage, "storage-nodes", 3, "storage nodes (shared)")
	fs.IntVar(&tf.providers, "providers", 0, "providers per aggregator (shared)")
	fs.BoolVar(&tf.verifiable, "verifiable", false, "verifiable aggregation (shared)")
	fs.BoolVar(&tf.signed, "signed", false, "authenticate participants with Ed25519-signed records (shared)")
	fs.StringVar(&tf.curve, "curve", "secp256r1-fast", "commitment curve (shared)")
	fs.IntVar(&tf.rounds, "rounds", 5, "FL rounds (shared)")
	fs.Int64Var(&tf.seed, "seed", 7, "dataset seed (shared)")
	fs.Float64Var(&tf.lr, "lr", 0.2, "SGD learning rate (shared)")
	fs.IntVar(&tf.epochs, "epochs", 2, "local epochs per round (shared)")
	fs.IntVar(&tf.batch, "batch", 32, "SGD batch size (shared)")
	return tf
}

// buildConfig expands shared flags into the deterministic task wiring.
func (tf *taskFlags) buildConfig() (*core.Config, ml.Model, error) {
	m := ml.NewLogistic(8, 4)
	names := make([]string, tf.trainers)
	for i := range names {
		names[i] = fmt.Sprintf("trainer-%02d", i)
	}
	nodes := make([]string, tf.storage)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("ipfs-%02d", i)
	}
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID:                  tf.task,
		ModelDim:                m.Dim(),
		Partitions:              tf.partitions,
		Trainers:                names,
		AggregatorsPerPartition: tf.aggregators,
		StorageNodes:            nodes,
		ProvidersPerAggregator:  tf.providers,
		Verifiable:              tf.verifiable,
		Curve:                   tf.curve,
		TTrain:                  2 * time.Minute,
		TSync:                   30 * time.Second,
		PollInterval:            10 * time.Millisecond,
	})
	return cfg, m, err
}

// localData deterministically derives trainer idx's shard.
func (tf *taskFlags) localData(idx int) (*ml.Dataset, error) {
	data := ml.Blobs(60*tf.trainers, 8, 4, 1.2, tf.seed)
	splits, err := data.SplitIID(tf.trainers, tf.seed+1)
	if err != nil {
		return nil, err
	}
	return splits[idx], nil
}

func (tf *taskFlags) sgd() ml.SGDConfig {
	return ml.SGDConfig{LearningRate: tf.lr, Epochs: tf.epochs, BatchSize: tf.batch}
}

// attachKey gives the session the signing key for the one role this
// process plays (demo key derivation; production would load a key file).
func (tf *taskFlags) attachKey(sess *core.Session, id string) {
	if !tf.signed {
		return
	}
	ring := identity.NewKeyring()
	ring.Add(identity.Deterministic(tf.task, id))
	sess.SetKeyring(ring)
}

// obsFlags holds the observability flags shared by every subcommand:
// the introspection endpoint, span JSONL output (with sampling and
// size-capped rotation), and the round watchdog's stuck deadline. The
// watchdog behind /alerts needs no other knob: it reports stuck_round
// once no span has ended for -stuck-after, and flags stragglers against
// their own iteration's peers.
type obsFlags struct {
	metricsAddr string
	spanOut     string
	spanSample  string
	rotateMB    int
	pprof       bool
	stuckAfter  time.Duration
}

func registerObsFlags(fs *flag.FlagSet) *obsFlags {
	of := &obsFlags{}
	fs.StringVar(&of.metricsAddr, "metrics-addr", "", "serve /metrics, /spans, /alerts, /readyz … on this address (empty disables)")
	fs.StringVar(&of.spanOut, "span-out", "", "write causal spans to this file as JSON Lines (analyze with iplstrace)")
	fs.StringVar(&of.spanSample, "span-sample", "", "sample spans before -span-out: slowest=N,rate=F (off = keep everything)")
	fs.IntVar(&of.rotateMB, "rotate-mb", 0, "rotate the -span-out file at this size in MiB, keeping one predecessor (0 = unbounded)")
	fs.BoolVar(&of.pprof, "pprof", false, "expose /debug/pprof/ on the -metrics-addr endpoint")
	fs.DurationVar(&of.stuckAfter, "stuck-after", 0, "report stuck_round when no span ends for this long (0 disables)")
	return of
}

// introspection is a process's observability bundle: a metrics registry,
// a bounded span ring for /spans (plus an optional span JSONL file), the
// round watchdog behind /alerts, the readiness probe behind /readyz and
// /healthz, and the HTTP server exposing them when -metrics-addr is set.
type introspection struct {
	reg     *obs.Registry
	spans   *obs.SpanCollector
	sink    obs.SpanSink
	spanW   *obs.SpanJSONLWriter
	spanF   *obs.RotatingFile
	sampler *obs.SpanSampler
	watch   *obs.Watchdog
	ready   *obs.Readiness
	srv     *obs.HTTPServer
}

// startIntrospection builds the bundle. The watchdog rides the span
// fan-out and judges on read, so /alerts needs no evaluation loop.
func startIntrospection(of *obsFlags, seed int64) (*introspection, error) {
	in := &introspection{
		reg:   obs.NewRegistry(),
		spans: obs.NewSpanCollector(4096),
		watch: obs.NewWatchdog(of.stuckAfter),
		ready: obs.NewReadiness(),
	}
	sinks := obs.MultiSpanSink{in.spans, in.watch}
	if of.spanOut != "" {
		f, err := obs.NewRotatingFile(of.spanOut, int64(of.rotateMB)<<20)
		if err != nil {
			return nil, fmt.Errorf("span-out: %w", err)
		}
		in.spanF = f
		in.spanW = obs.NewSpanJSONLWriter(f)
		var fileSink obs.SpanSink = in.spanW
		slowest, rate, err := obs.ParseSpanSample(of.spanSample)
		if err != nil {
			in.close()
			return nil, err
		}
		if slowest > 0 || rate < 1 {
			in.sampler = obs.NewSpanSampler(in.spanW, slowest, rate, seed)
			fileSink = in.sampler
		}
		sinks = append(sinks, fileSink)
	} else if of.spanSample != "" {
		return nil, fmt.Errorf("-span-sample needs -span-out")
	}
	in.sink = sinks
	if of.metricsAddr == "" {
		return in, nil
	}
	srv, err := obs.StartHTTP(of.metricsAddr, obs.HandlerConfig{
		Registry: in.reg,
		Spans:    func() any { return in.spans.Spans() },
		// One process usually carries one node, but the scoreboard shape
		// is the same either way: split the registry by node label and
		// roll up. A cluster-wide board comes from merging several
		// processes' /metrics.json scrapes the same way.
		Scoreboard: func() any { return obs.MergeSnapshots(obs.SplitByLabel(in.reg.Snapshot(), "node"), 5) },
		Alerts:     func() any { return in.watch.Status(time.Now()) },
		Health:     in.ready.Check,
		Readiness:  in.ready,
		Pprof:      of.pprof,
	})
	if err != nil {
		in.close()
		return nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	in.srv = srv
	fmt.Printf("iplsd: introspection on http://%s/metrics (/spans, /scoreboard, /alerts, /buildinfo, /healthz, /readyz)\n", srv.Addr)
	return in, nil
}

func (in *introspection) close() {
	if in.srv != nil {
		in.srv.Close()
	}
	if in.sampler != nil {
		in.sampler.Flush()
		seen, _ := in.sampler.Stats()
		fmt.Printf("iplsd: span-out kept %d of %d spans\n", in.spanW.Emitted(), seen)
	}
	if in.spanW != nil {
		if err := in.spanW.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "iplsd: span-out flush: %v\n", err)
		}
	}
	if in.spanF != nil {
		in.spanF.Close()
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: iplsd <serve|trainer|aggregator|demo> [flags]")
	}
	switch args[0] {
	case "serve":
		return serve(args[1:])
	case "trainer":
		return trainer(args[1:])
	case "aggregator":
		return aggregator(args[1:])
	case "demo":
		return demo(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// serve hosts the storage network and the directory service — the
// bootstrapper's side of the deployment.
func serve(args []string) error {
	fs := flag.NewFlagSet("iplsd serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7000", "TCP listen address")
	of := registerObsFlags(fs)
	snapshotFile := fs.String("snapshot-file", "", "restore the directory from this file if it exists; save on shutdown (defaults to <store-dir>/directory.json when -store-dir is set)")
	storeDir := fs.String("store-dir", "", "durable state root: content-addressed blocks under <dir>/blocks survive restarts and are re-served without re-replication (empty = in-memory)")
	cacheBlocks := fs.Int("cache-blocks", 256, "per-node LRU block-cache capacity over the -store-dir disk backend (0 disables)")
	tf := registerTaskFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, _, err := tf.buildConfig()
	if err != nil {
		return err
	}
	field := scalar.NewField(cfg.Curve.N)
	storeCfg := storage.StoreConfig{}
	if *storeDir != "" {
		storeCfg = storage.StoreConfig{
			Backend:     storage.BackendFS,
			Dir:         filepath.Join(*storeDir, "blocks"),
			CacheBlocks: *cacheBlocks,
		}
		if *snapshotFile == "" {
			*snapshotFile = filepath.Join(*storeDir, "directory.json")
		}
	}
	netw := storage.NewNetworkWithStore(field, 2, storeCfg)
	defer netw.Close()
	for _, id := range cfg.StorageNodes {
		netw.AddNode(id)
	}
	params, err := cfg.PedersenParams()
	if err != nil {
		return err
	}
	var dir *directory.Service
	if *snapshotFile != "" {
		dir, err = directory.RestoreFile(*snapshotFile, params, netw)
		if err != nil {
			return fmt.Errorf("restore snapshot %s: %w", *snapshotFile, err)
		}
		if dir != nil {
			fmt.Printf("iplsd: directory restored from %s\n", *snapshotFile)
		}
	}
	if dir == nil {
		dir = directory.New(params, netw)
	}
	// Assignments are config, not state: (re)apply so a config change
	// between runs takes effect and a fresh boot starts assigned.
	cfg.ApplyAssignments(dir)
	if tf.signed {
		_, reg := identity.DeterministicSetup(tf.task, cfg.ParticipantIDs())
		dir.SetRegistry(reg)
	}
	srv := transport.NewServer()
	if err := srv.RegisterStorage(netw); err != nil {
		return err
	}
	if err := srv.RegisterDirectory(dir); err != nil {
		return err
	}
	in, err := startIntrospection(of, tf.seed)
	if err != nil {
		return err
	}
	defer in.close()
	// Readiness composition: the server is ready when storage can meet
	// its replication target and the directory answers lookups.
	in.ready.Register("storage", netw.Health)
	in.ready.Register("directory", func() error {
		// A directory rejecting more publishes than it accepts is
		// screening everything out — stale assignments or key mismatch.
		if st := dir.Stats(); st.Rejections > 0 && st.Rejections > st.Publishes {
			return fmt.Errorf("directory: %d rejections against %d accepted publishes", st.Rejections, st.Publishes)
		}
		return nil
	})
	netw.SetMetrics(in.reg)
	netw.SetSpans(in.sink)
	srv.SetMetrics(in.reg)
	srv.SetSpans(in.sink)
	addr, err := srv.Listen(*listen)
	if err != nil {
		return err
	}
	fmt.Printf("iplsd: serving task %q on %s (verifiable=%v)\n", tf.task, addr, tf.verifiable)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("iplsd: shutting down")
	if *snapshotFile != "" {
		if err := dir.SaveSnapshotFile(*snapshotFile); err != nil {
			fmt.Fprintf(os.Stderr, "iplsd: snapshot failed: %v\n", err)
		} else {
			fmt.Printf("iplsd: directory snapshot saved to %s\n", *snapshotFile)
		}
	}
	return srv.Close()
}

// trainer runs one trainer's FL loop against a remote server.
func trainer(args []string) error {
	fs := flag.NewFlagSet("iplsd trainer", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7000", "server address")
	index := fs.Int("index", 0, "trainer index in [0, trainers)")
	of := registerObsFlags(fs)
	tf := registerTaskFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, m, err := tf.buildConfig()
	if err != nil {
		return err
	}
	if *index < 0 || *index >= len(cfg.Trainers) {
		return fmt.Errorf("trainer index %d out of range", *index)
	}
	me := cfg.Trainers[*index]
	client, err := transport.Dial(*addr)
	if err != nil {
		return err
	}
	defer client.Close()
	sess, err := core.NewSession(cfg, client, client)
	if err != nil {
		return err
	}
	tf.attachKey(sess, me)
	in, err := startIntrospection(of, tf.seed)
	if err != nil {
		return err
	}
	defer in.close()
	in.ready.Register("round_progressing", func() error { return in.watch.Check(time.Now()) })
	sess.SetMetrics(in.reg)
	sess.SetSpans(in.sink)
	// Real processes meter actual CPU/alloc; spans carry the deltas.
	sess.SetResourceMeter(obs.RuntimeMeter{})
	client.SetMetrics(in.reg)
	local, err := tf.localData(*index)
	if err != nil {
		return err
	}
	global := m.Params()
	fmt.Printf("iplsd: trainer %s starting (%d examples, %d rounds)\n", me, local.Len(), tf.rounds)
	for round := 0; round < tf.rounds; round++ {
		sgd := tf.sgd()
		sgd.Seed = ml.ParticipantSeed(int64(round), *index)
		delta, loss, err := ml.LocalDelta(m, local, global, sgd)
		if err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		if err := sess.TrainerUpload(context.Background(), me, round, delta); err != nil {
			return fmt.Errorf("round %d upload: %w", round, err)
		}
		avg, err := sess.TrainerCollect(context.Background(), round)
		if err != nil {
			return fmt.Errorf("round %d collect: %w", round, err)
		}
		for i := range global {
			global[i] += avg[i]
		}
		if err := m.SetParams(global); err != nil {
			return err
		}
		fmt.Printf("iplsd: %s round %d done (local loss %.4f, local acc %.3f)\n",
			me, round, loss, ml.Accuracy(m, local))
	}
	return nil
}

// aggregator runs one aggregator role against a remote server.
func aggregator(args []string) error {
	fs := flag.NewFlagSet("iplsd aggregator", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7000", "server address")
	partition := fs.Int("partition", 0, "partition this aggregator serves")
	slot := fs.Int("slot", 0, "aggregator slot j within the partition")
	of := registerObsFlags(fs)
	tf := registerTaskFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, _, err := tf.buildConfig()
	if err != nil {
		return err
	}
	if *partition < 0 || *partition >= cfg.Spec.Partitions {
		return fmt.Errorf("partition %d out of range", *partition)
	}
	if *slot < 0 || *slot >= len(cfg.Aggregators[*partition]) {
		return fmt.Errorf("slot %d out of range", *slot)
	}
	me := cfg.Aggregators[*partition][*slot]
	client, err := transport.Dial(*addr)
	if err != nil {
		return err
	}
	defer client.Close()
	sess, err := core.NewSession(cfg, client, client)
	if err != nil {
		return err
	}
	tf.attachKey(sess, me)
	in, err := startIntrospection(of, tf.seed)
	if err != nil {
		return err
	}
	defer in.close()
	in.ready.Register("round_progressing", func() error { return in.watch.Check(time.Now()) })
	sess.SetMetrics(in.reg)
	sess.SetSpans(in.sink)
	// Real processes meter actual CPU/alloc; spans carry the deltas.
	sess.SetResourceMeter(obs.RuntimeMeter{})
	client.SetMetrics(in.reg)
	fmt.Printf("iplsd: aggregator %s starting (%d rounds)\n", me, tf.rounds)
	for round := 0; round < tf.rounds; round++ {
		rep, err := sess.AggregatorRun(context.Background(), me, *partition, round, core.BehaviorHonest)
		if err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		fmt.Printf("iplsd: %s round %d: %d gradients, %d merges, published=%v\n",
			me, round, rep.GradientsAggregated, rep.MergeDownloads, rep.PublishedGlobal)
	}
	return nil
}

// demo runs server, trainers and aggregators in one process over loopback
// TCP — a smoke test for the networked deployment.
func demo(args []string) error {
	fs := flag.NewFlagSet("iplsd demo", flag.ContinueOnError)
	of := registerObsFlags(fs)
	tf := registerTaskFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, _, err := tf.buildConfig()
	if err != nil {
		return err
	}
	field := scalar.NewField(cfg.Curve.N)
	netw := storage.NewNetwork(field, 2)
	for _, id := range cfg.StorageNodes {
		netw.AddNode(id)
	}
	params, err := cfg.PedersenParams()
	if err != nil {
		return err
	}
	dir := directory.New(params, netw)
	cfg.ApplyAssignments(dir)
	srv := transport.NewServer()
	if err := srv.RegisterStorage(netw); err != nil {
		return err
	}
	if err := srv.RegisterDirectory(dir); err != nil {
		return err
	}
	in, err := startIntrospection(of, tf.seed)
	if err != nil {
		return err
	}
	defer in.close()
	in.ready.Register("storage", netw.Health)
	netw.SetMetrics(in.reg)
	netw.SetSpans(in.sink)
	srv.SetMetrics(in.reg)
	srv.SetSpans(in.sink)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("iplsd demo: server on %s\n", addr)

	var wg sync.WaitGroup
	errs := make(chan error, tf.trainers+cfg.Spec.Partitions*tf.aggregators)
	for i := 0; i < tf.trainers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := []string{"-addr", addr, "-index", fmt.Sprint(i)}
			args = append(args, sharedArgs(tf)...)
			if err := trainer(args); err != nil {
				errs <- fmt.Errorf("trainer %d: %w", i, err)
			}
		}()
	}
	for p := 0; p < tf.partitions; p++ {
		for j := 0; j < tf.aggregators; j++ {
			p, j := p, j
			wg.Add(1)
			go func() {
				defer wg.Done()
				args := []string{"-addr", addr, "-partition", fmt.Sprint(p), "-slot", fmt.Sprint(j)}
				args = append(args, sharedArgs(tf)...)
				if err := aggregator(args); err != nil {
					errs <- fmt.Errorf("aggregator p%d-%d: %w", p, j, err)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	fmt.Println("iplsd demo: all roles completed")
	return nil
}

func sharedArgs(tf *taskFlags) []string {
	return []string{
		"-task", tf.task,
		"-trainers", fmt.Sprint(tf.trainers),
		"-partitions", fmt.Sprint(tf.partitions),
		"-aggregators", fmt.Sprint(tf.aggregators),
		"-storage-nodes", fmt.Sprint(tf.storage),
		"-providers", fmt.Sprint(tf.providers),
		"-verifiable=" + fmt.Sprint(tf.verifiable),
		"-signed=" + fmt.Sprint(tf.signed),
		"-curve", tf.curve,
		"-rounds", fmt.Sprint(tf.rounds),
		"-seed", fmt.Sprint(tf.seed),
		"-lr", fmt.Sprint(tf.lr),
		"-epochs", fmt.Sprint(tf.epochs),
		"-batch", fmt.Sprint(tf.batch),
	}
}

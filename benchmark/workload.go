package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"ipls/internal/core"
	"ipls/internal/directory"
	"ipls/internal/scalar"
	"ipls/internal/storage"
	"ipls/internal/transport"
)

// Protocol shape common to every workload: each partition has two
// aggregators serving four trainers each, and every aggregator has two
// merge-and-download providers, so each provider pre-aggregates two
// gradients and each aggregator batch-verifies m=2 merged groups — the
// small-m BatchVerify regime the ROADMAP flags.
const (
	numTrainers     = 8
	numPartitions   = 4
	aggsPerPart     = 2
	providersPerAgg = 2
	numStorageNodes = 4
	warmupRounds    = 3
	// avgTolerance bounds |AvgDelta - float64 mean| per element: the
	// quantization error at the default 24-bit shift is ~2e-8.
	avgTolerance = 1e-6
)

// shape is what distinguishes one workload from another.
type shape struct {
	Name string `json:"name"`
	// Why is the one-line reason the workload exists (also in BENCHMARK.json).
	Why        string `json:"why"`
	ModelDim   int    `json:"model_dim"`
	Verifiable bool   `json:"verifiable"`
	Curve      string `json:"curve,omitempty"`
	// TCP routes every storage and directory call of the Session through
	// one transport.Client over loopback to an in-process transport.Server.
	TCP      bool   `json:"tcp"`
	Backend  string `json:"backend"`
	Replicas int    `json:"replicas"`
}

// PartitionLen is L: the block length in field elements, counter included.
func (sh shape) PartitionLen() int { return sh.ModelDim/numPartitions + 1 }

// workloads are sized (time is linear in ModelDim) so that a round takes
// 110-230 ms on a 2-core 2.6 GHz Xeon and the 24 s timed window holds 100+
// rounds, enough for a p90 with ten samples beyond it. verif_k1 must stay
// at L >= 193 to sit above the n >= 128 parallel-Pippenger band; its round
// takes 340 ms, so its window holds about 70.
var workloads = []shape{
	{
		Name:     "plain_mem",
		Why:      "plain mode, in-process mem store: scalar quantize, model encode/decode, cid hashing and storage merge do the work; group/pedersen/transport do none",
		ModelDim: 32768, Backend: storage.BackendMem, Replicas: 1,
	},
	{
		Name:     "plain_tcp_fs",
		Why:      "same core work as plain_mem through one loopback transport.Client onto the fs CAS with 2 replicas: the difference is the deployment premium (gob/RPC, disk put/get, doubled writes)",
		ModelDim: 32768, TCP: true, Backend: storage.BackendFS, Replicas: 2,
	},
	{
		Name:     "verif_p256",
		Why:      "verifiable mode on the default curve (secp256r1-fast, stdlib-backed naive multiexp, no tables): pedersen Commit/BatchVerify and directory accumulate/verify dominate",
		ModelDim: 256, Verifiable: true, Backend: storage.BackendMem, Replicas: 1,
	},
	{
		Name:     "verif_k1",
		Why:      "verifiable mode on secp256k1 (generic math/big Jacobian path, parallel Pippenger, fixed-base tables) at L=193: the only workload where group's own arithmetic does the work",
		ModelDim: 768, Verifiable: true, Curve: "secp256k1", Backend: storage.BackendMem, Replicas: 1,
	},
}

func workloadByName(name string) (shape, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return shape{}, false
}

func (sh shape) taskSpec() core.TaskSpec {
	ts := core.TaskSpec{
		TaskID:                  "bench-" + sh.Name,
		ModelDim:                sh.ModelDim,
		Partitions:              numPartitions,
		AggregatorsPerPartition: aggsPerPart,
		ProvidersPerAggregator:  providersPerAgg,
		Verifiable:              sh.Verifiable,
		Curve:                   sh.Curve,
	}
	// NewConfig deals trainers to a partition's two aggregators alternately
	// and Config.UploadNode picks a trainer's provider from the low bit of
	// an FNV hash of its ID, which is the parity of the ID's number. Listing
	// the IDs as 00 02 01 03 04 06 05 07 gives each aggregator two even and
	// two odd trainers, hence two gradients on each of its two providers.
	for _, n := range [numTrainers]int{0, 2, 1, 3, 4, 6, 5, 7} {
		ts.Trainers = append(ts.Trainers, fmt.Sprintf("trainer-%02d", n))
	}
	for i := 0; i < numStorageNodes; i++ {
		ts.StorageNodes = append(ts.StorageNodes, fmt.Sprintf("ipfs-%02d", i))
	}
	return ts
}

// wrapFunc lets the traced run put its decorators between the Session and
// the backends; the timed run passes nil and the Session sees the backends
// themselves.
type wrapFunc func(storage.Client, core.Directory) (storage.Client, core.Directory, error)

// stack is one complete deployment of a workload.
type stack struct {
	cfg    *core.Config
	sess   *core.Session
	net    *storage.Network
	dir    *directory.Service
	srv    *transport.Server // nil in-process
	cli    *transport.Client // nil in-process
	fsRoot string            // the fs backend's blocks; "" on the mem store
}

// buildStack wires a workload's deployment the way its users would:
// NewConfig, storage network on the chosen backend, directory with
// assignments, optionally a loopback server and one client, NewSession.
// scratch is the directory under which an fs backend keeps its blocks.
func buildStack(sh shape, scratch string, wrap wrapFunc) (_ *stack, err error) {
	st := &stack{}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	if st.cfg, err = core.NewConfig(sh.taskSpec()); err != nil {
		return nil, err
	}
	storeCfg := storage.StoreConfig{Backend: sh.Backend}
	if sh.Backend == storage.BackendFS {
		if st.fsRoot, err = os.MkdirTemp(scratch, sh.Name+"-blocks-*"); err != nil {
			return nil, err
		}
		storeCfg.Dir = st.fsRoot
	}
	st.net = storage.NewNetworkWithStore(scalar.NewField(st.cfg.Curve.N), sh.Replicas, storeCfg)
	for _, id := range st.cfg.StorageNodes {
		st.net.AddNode(id)
	}
	if err = st.net.Health(); err != nil {
		return nil, fmt.Errorf("storage backend: %w", err)
	}
	params, err := st.cfg.PedersenParams()
	if err != nil {
		return nil, err
	}
	st.dir = directory.New(params, st.net)
	st.cfg.ApplyAssignments(st.dir)
	var store storage.Client = st.net
	var dir core.Directory = st.dir
	if sh.TCP {
		st.srv = transport.NewServer()
		if err = st.srv.RegisterStorage(st.net); err != nil {
			return nil, err
		}
		if err = st.srv.RegisterDirectory(st.dir); err != nil {
			return nil, err
		}
		addr, err := st.srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if st.cli, err = transport.Dial(addr); err != nil {
			return nil, err
		}
		store, dir = st.cli, st.cli
	}
	if wrap != nil {
		if store, dir, err = wrap(store, dir); err != nil {
			return nil, err
		}
	}
	if st.sess, err = core.NewSession(st.cfg, store, dir); err != nil {
		return nil, err
	}
	return st, nil
}

// Close tears the deployment down and removes its blocks from disk.
func (st *stack) Close() {
	if st.cli != nil {
		st.cli.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.net != nil {
		st.net.Close()
	}
	if st.fsRoot != "" {
		os.RemoveAll(st.fsRoot)
	}
}

// deltaPool holds the per-trainer model deltas of a run. Round r hands
// trainer i its base vector rotated left by r elements (a view into a
// doubled array, no copying), so every round uploads blocks no earlier
// round uploaded and the content-addressed store never dedups; the
// float64 mean rotates along with it.
type deltaPool struct {
	dim      int
	trainers []string
	doubled  [][]float64 // per trainer: base ++ base
	mean     []float64   // mean of the bases, doubled likewise
}

func newDeltaPool(seed int64, trainers []string, dim int) *deltaPool {
	rng := rand.New(rand.NewSource(seed))
	p := &deltaPool{dim: dim, trainers: trainers, mean: make([]float64, 2*dim)}
	for range trainers {
		d := make([]float64, 2*dim)
		for j := 0; j < dim; j++ {
			d[j] = rng.NormFloat64()
			d[j+dim] = d[j]
		}
		p.doubled = append(p.doubled, d)
	}
	for j := range p.mean {
		var sum float64
		for _, d := range p.doubled {
			sum += d[j]
		}
		p.mean[j] = sum / float64(len(trainers))
	}
	return p
}

func (p *deltaPool) round(r int) (deltas map[string][]float64, mean []float64) {
	off := r % p.dim
	deltas = make(map[string][]float64, len(p.trainers))
	for i, tr := range p.trainers {
		deltas[tr] = p.doubled[i][off : off+p.dim]
	}
	return deltas, p.mean[off : off+p.dim]
}

// roundOutcome is what one checked round produced.
type roundOutcome struct {
	total   time.Duration // RunIteration + CleanupIteration
	cleanup time.Duration
	aggErr  float64 // max |AvgDelta - mean| over the round
	err     error   // non-nil: the round failed or its output was wrong
}

// runRound is the closed loop's unit of work: one RunIteration followed by
// its CleanupIteration, then the output check (outside the timed span).
// behaviors plants cheating aggregators: an honest verifiable round must not
// raise the alarm, a round with a planted cheater must. rec, when set,
// receives the round and cleanup spans and parents the boundary calls.
func runRound(ctx context.Context, st *stack, pool *deltaPool, iter int, behaviors map[string]core.Behavior, rec *recorder) roundOutcome {
	deltas, mean := pool.round(iter)
	if rec != nil {
		rec.enter(iter, spanRound)
	}
	start := time.Now()
	res, err := st.sess.RunIteration(ctx, iter, deltas, behaviors)
	ran := time.Now()
	if rec != nil {
		rec.add(span{Name: spanRound, Round: iter, Failed: err != nil}, start, ran)
		rec.enter(iter, spanCleanup)
	}
	if err == nil {
		_, err = st.sess.CleanupIteration(ctx, iter)
	}
	end := time.Now()
	if rec != nil {
		rec.add(span{Name: spanCleanup, Round: iter, Failed: err != nil}, ran, end)
	}
	out := roundOutcome{total: end.Sub(start), cleanup: end.Sub(ran), err: err}
	if err != nil {
		return out
	}
	switch {
	case len(res.Incomplete) > 0:
		out.err = fmt.Errorf("iter %d: partitions %v incomplete", iter, res.Incomplete)
	case len(res.AvgDelta) != len(mean):
		out.err = fmt.Errorf("iter %d: AvgDelta has %d elements, want %d", iter, len(res.AvgDelta), len(mean))
	case res.Detected() != (len(behaviors) > 0):
		out.err = fmt.Errorf("iter %d: Detected()=%v with %d planted cheaters", iter, res.Detected(), len(behaviors))
	}
	if out.err != nil {
		return out
	}
	for i, v := range res.AvgDelta {
		if d := math.Abs(v - mean[i]); d > out.aggErr {
			out.aggErr = d
		}
	}
	if !(out.aggErr <= avgTolerance) { // also catches NaN
		out.err = fmt.Errorf("iter %d: AvgDelta off the float64 mean by %g (tolerance %g)", iter, out.aggErr, avgTolerance)
	}
	return out
}

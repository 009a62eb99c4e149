package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ipls/internal/cid"
	"ipls/internal/dag"
	"ipls/internal/directory"
	"ipls/internal/group"
	"ipls/internal/model"
	"ipls/internal/pedersen"
	"ipls/internal/scalar"
	"ipls/internal/storage"
	"ipls/internal/transport"
)

// Fan-ins of the common protocol shape, which the replay reuses.
const (
	trainersPerAgg      = numTrainers / aggsPerPart
	trainersPerProvider = trainersPerAgg / providersPerAgg
)

// replayer measures layers on their own, by direct calls with the inputs
// the workload's round hands them: L elements per block, the round's
// fan-ins, the workload's curve and store backend. The first error sticks
// and turns the remaining measurements into no-ops.
type replayer struct {
	ctx  context.Context
	sh   shape
	opts runOpts
	m    metrics
	err  error

	nodes []string
	field *scalar.Field
	quant *scalar.Quantizer
	// delta is the first trainer's first-round model delta, parts the
	// first partition of each trainer's; blocks and encoded are the parts
	// quantized and serialized.
	delta   []float64
	parts   [][]float64
	blocks  []model.Block
	encoded [][]byte
	payload []byte // see freshPayload
}

// sample calls fn(i) for i = 0, 1, ... at least Reps times — and on, up to
// 50*Reps, until RepBudget has been measured, so that short calls get more
// samples — and returns the median seconds of one call. Each sample times
// batch consecutive calls, for calls too short for the clock. prep, when
// set, runs untimed before each sample to make its input.
func (r *replayer) sample(batch int, prep func(i int), fn func(i int) error) float64 {
	if r.err != nil {
		return 0
	}
	var samples []float64
	var total time.Duration
	for i := 0; i < r.opts.Reps || (total < r.opts.RepBudget && i < 50*r.opts.Reps); i++ {
		if prep != nil {
			prep(i)
		}
		start := time.Now()
		for b := 0; b < batch; b++ {
			if r.err = fn(i*batch + b); r.err != nil {
				return 0
			}
		}
		d := time.Since(start)
		total += d
		samples = append(samples, d.Seconds()/float64(batch))
	}
	return median(samples)
}

// timed stores the median time of fn under name, in units of unit.
func (r *replayer) timed(name string, unit time.Duration, fn func(i int) error) {
	if s := r.sample(1, nil, fn); r.err == nil {
		r.m[name] = s / unit.Seconds()
	} else {
		r.err = fmt.Errorf("%s: %w", name, r.err)
	}
}

// rate stores under name the MB/s at which fn moves size bytes.
func (r *replayer) rate(name string, size int, prep func(i int), fn func(i int) error) {
	if s := r.sample(1, prep, fn); r.err == nil {
		r.m[name] = float64(size) / 1e6 / s
	}
}

// allocs stores the average allocation count of fn under name.
func (r *replayer) allocs(name string, fn func(i int) error) {
	if r.err == nil {
		r.m[name] = testing.AllocsPerRun(5, func() { _ = fn(0) })
	}
}

// must records an error from preparing a replay's inputs.
func (r *replayer) must(err error) {
	if r.err == nil {
		r.err = err
	}
}

func replayLayers(ctx context.Context, sh shape, st *stack, pool *deltaPool, opts runOpts, m metrics) error {
	cfg := st.cfg
	r := &replayer{
		ctx: ctx, sh: sh, opts: opts, m: m,
		nodes: cfg.StorageNodes, field: scalar.NewField(cfg.Curve.N), quant: st.sess.Quantizer(),
	}
	deltas, _ := pool.round(0)
	r.delta = deltas[cfg.Trainers[0]]
	for _, tr := range cfg.Trainers {
		parts, err := model.Split(cfg.Spec, deltas[tr])
		if err != nil {
			return err
		}
		block, err := model.Quantize(r.quant, parts[0])
		if err != nil {
			return err
		}
		data, err := block.Encode()
		if err != nil {
			return err
		}
		r.parts = append(r.parts, parts[0])
		r.blocks = append(r.blocks, block)
		r.encoded = append(r.encoded, data)
	}
	r.scalarModelCID()
	r.storage()
	r.dag()
	if sh.Verifiable {
		r.group(cfg.Curve)
		r.pedersenDirectory(st)
	}
	if sh.TCP {
		r.transport()
	}
	return r.err
}

func (r *replayer) scalarModelCID() {
	part, block, data := r.parts[0], r.blocks[0], r.encoded[0]
	r.timed("scalar.encode_vec_us", time.Microsecond, func(int) error {
		_, err := r.quant.EncodeVec(part)
		return err
	})
	r.timed("scalar.decode_vec_us", time.Microsecond, func(int) error {
		r.quant.DecodeVec(block.Values)
		return nil
	})
	// Everything that sums blocks in a round sums two: a provider its two
	// gradients, an aggregator its two merged groups, then the two partials.
	r.timed("scalar.sum_vecs_us", time.Microsecond, func(int) error {
		_, err := r.field.SumVecs(r.blocks[0].Values, r.blocks[1].Values)
		return err
	})
	quantizeEncode := func(int) error {
		b, err := model.Quantize(r.quant, part)
		if err != nil {
			return err
		}
		_, err = b.Encode()
		return err
	}
	r.timed("model.quantize_encode_us", time.Microsecond, quantizeEncode)
	r.allocs("model.quantize_encode_allocs", quantizeEncode)
	r.timed("model.decode_dequantize_us", time.Microsecond, func(int) error {
		b, err := model.DecodeBlock(data)
		if err != nil {
			return err
		}
		_, err = model.Dequantize(r.quant, b)
		return err
	})
	r.rate("cid.sum_mbps", len(data), nil, func(int) error {
		cid.Sum(data)
		return nil
	})
}

// freshPayload makes r.payload a block-sized buffer that differs for every
// i, so a content-addressed store cannot answer a Put from its index.
func (r *replayer) freshPayload(i int) {
	r.payload = append([]byte(nil), r.encoded[0]...)
	binary.BigEndian.PutUint64(r.payload[len(r.payload)-8:], uint64(i)+1)
}

func (r *replayer) storage() {
	var bs storage.BlockStore = storage.NewMemStore()
	storeCfg := storage.StoreConfig{Backend: r.sh.Backend}
	if r.sh.Backend == storage.BackendFS {
		dir, err := os.MkdirTemp(r.opts.OutDir, "replay-blocks-*")
		if err != nil {
			r.must(err)
			return
		}
		defer os.RemoveAll(dir)
		if bs, err = storage.OpenFSStore(filepath.Join(dir, "blockstore")); err != nil {
			r.must(err)
			return
		}
		storeCfg.Dir = filepath.Join(dir, "network")
	}
	defer bs.Close()
	var cids []cid.CID
	put := r.sample(1, r.freshPayload, func(int) error {
		c, err := bs.Put(r.ctx, r.payload)
		cids = append(cids, c)
		return err
	})
	r.m["storage.blockstore_put_us"] = put * 1e6
	r.timed("storage.blockstore_get_us", time.Microsecond, func(i int) error {
		_, err := bs.Get(r.ctx, cids[i%len(cids)])
		return err
	})

	net := storage.NewNetworkWithStore(r.field, r.sh.Replicas, storeCfg)
	defer net.Close()
	for _, id := range r.nodes {
		net.AddNode(id)
	}
	var merged []cid.CID
	for _, data := range r.encoded[:trainersPerProvider] {
		c, err := net.Put(r.ctx, r.nodes[0], data)
		r.must(err)
		merged = append(merged, c)
	}
	r.timed("storage.network_merge_us", time.Microsecond, func(int) error {
		_, err := net.MergeGet(r.ctx, r.nodes[0], merged)
		return err
	})
}

// dag has no workload yet (checkpoints are not on the round); the rows
// give the first change that puts them there a baseline.
func (r *replayer) dag() {
	data := model.EncodeFloats(r.delta)
	var root dag.Ref
	var blocks map[cid.CID][]byte
	r.timed("dag.build_us", time.Microsecond, func(int) (err error) {
		root, blocks, err = dag.Build(data, 0)
		return err
	})
	r.timed("dag.assemble_us", time.Microsecond, func(int) error {
		_, err := dag.Assemble(root, func(c cid.CID) ([]byte, error) {
			if b, ok := blocks[c]; ok {
				return b, nil
			}
			return nil, errors.New("missing block")
		})
		return err
	})
}

func (r *replayer) group(curve *group.Curve) {
	k := new(big.Int).Rand(rand.New(rand.NewSource(r.opts.Seed)), curve.N)
	points := make([]group.Point, r.sh.PartitionLen())
	for i := range points {
		points[i] = curve.HashToPoint("bench/replay", i)
	}
	p, q := points[0], points[len(points)-1]
	r.m["group.add_ns"] = 1e9 * r.sample(64, nil, func(int) error {
		curve.Add(p, q)
		return nil
	})
	scalarMult := func(int) error {
		curve.ScalarMult(p, k)
		return nil
	}
	r.timed("group.scalar_mult_us", time.Microsecond, scalarMult)
	r.allocs("group.scalar_mult_allocs", scalarMult)
	r.timed("group.multiexp_us", time.Microsecond, func(int) error {
		_, err := curve.MultiScalarMult(points, r.blocks[0].Values, group.StrategyAuto)
		return err
	})
}

// mustHold turns a verification that did not succeed into an error: a
// replay that times a failing check is timing the wrong thing.
func mustHold(ok bool, err error) error {
	if err == nil && !ok {
		err = errors.New("verification failed on honest input")
	}
	return err
}

func (r *replayer) pedersenDirectory(st *stack) {
	cfg := st.cfg
	var params *pedersen.Params
	// Setup hashes L generators to the curve and, where the curve uses
	// them, builds their tables: too slow to repeat dozens of times.
	opts := r.opts
	r.opts.Reps, r.opts.RepBudget = 3, 0
	r.timed("pedersen.setup_ms", time.Millisecond, func(int) (err error) {
		params, err = pedersen.Setup(cfg.Curve, r.sh.PartitionLen(), "ipls/"+cfg.TaskID)
		return err
	})
	r.opts = opts
	if r.err != nil {
		return
	}

	commit := func(int) error {
		_, err := params.Commit(r.blocks[0].Values)
		return err
	}
	r.timed("pedersen.commit_us", time.Microsecond, commit)
	r.allocs("pedersen.commit_allocs", commit)

	// What an aggregator checks per download: one merged block per
	// provider against the product of the commitments that form it,
	// batched (as the Session does) or one by one.
	coms := make([]pedersen.Commitment, len(r.blocks))
	for i, b := range r.blocks {
		var err error
		coms[i], err = params.Commit(b.Values)
		r.must(err)
	}
	var merged [][]*big.Int
	var wants []pedersen.Commitment
	for g := 0; g < providersPerAgg && r.err == nil; g++ {
		lo, hi := g*trainersPerProvider, (g+1)*trainersPerProvider
		sum, err := model.Sum(r.field, r.blocks[lo:hi]...)
		r.must(err)
		want, err := params.Combine(coms[lo:hi]...)
		r.must(err)
		merged, wants = append(merged, sum.Values), append(wants, want)
	}
	r.timed("pedersen.verify_us", time.Microsecond, func(int) error {
		return mustHold(params.Verify(r.blocks[0].Values, coms[0]))
	})
	r.timed("pedersen.batch_verify_us", time.Microsecond, func(int) error {
		return mustHold(params.BatchVerify(merged, wants))
	})
	r.timed("pedersen.verify_loop_us", time.Microsecond, func(int) error {
		for g := range merged {
			if err := mustHold(params.Verify(merged[g], wants[g])); err != nil {
				return err
			}
		}
		return nil
	})
	r.timed("pedersen.combine_us", time.Microsecond, func(int) error {
		_, err := params.Combine(coms[:trainersPerProvider]...)
		return err
	})

	// The directory's share: folding a committed gradient record into its
	// accumulators, and checking a partial update against them.
	dir := directory.New(params, nil)
	cfg.ApplyAssignments(dir)
	agg := cfg.Aggregators[0][0]
	mine := cfg.TrainersOf(0, agg)
	record := func(iter int, trainer string, com pedersen.Commitment) directory.Record {
		return directory.Record{
			Addr: directory.Addr{Uploader: trainer, Partition: 0, Iter: iter, Type: directory.TypeGradient},
			CID:  cid.Sum(r.encoded[0]), Node: r.nodes[0], Commitment: com,
		}
	}
	var partial []byte
	if r.err == nil {
		for i, tr := range mine {
			r.must(dir.Publish(r.ctx, record(0, tr, coms[i])))
		}
		sum, err := model.Sum(r.field, r.blocks[:len(mine)]...)
		r.must(err)
		partial, err = sum.Encode()
		r.must(err)
	}
	r.timed("directory.publish_us", time.Microsecond, func(i int) error {
		return dir.Publish(r.ctx, record(i+1, mine[0], coms[0])) // a fresh address each time
	})
	r.timed("directory.verify_partial_us", time.Microsecond, func(int) error {
		return mustHold(dir.VerifyPartialUpdate(r.ctx, 0, 0, agg, partial))
	})
}

// transport prices the wire alone: a loopback client against a server
// whose storage is one in-memory node.
func (r *replayer) transport() {
	net := storage.NewNetwork(r.field, 1)
	net.AddNode(r.nodes[0])
	srv := transport.NewServer()
	r.must(srv.RegisterStorage(net))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		r.must(err)
		return
	}
	defer srv.Close()
	cli, err := transport.Dial(addr)
	if err != nil {
		r.must(err)
		return
	}
	defer cli.Close()

	r.timed("transport.rtt_us", time.Microsecond, func(int) error {
		cli.Listen("bench/replay", 0) // the smallest request and reply
		return nil
	})
	var cids []cid.CID
	r.rate("transport.put_mbps", len(r.encoded[0]), r.freshPayload, func(int) error {
		c, err := cli.Put(r.ctx, r.nodes[0], r.payload)
		cids = append(cids, c)
		return err
	})
	r.rate("transport.get_mbps", len(r.encoded[0]), nil, func(i int) error {
		_, err := cli.Get(r.ctx, r.nodes[0], cids[i%len(cids)])
		return err
	})
}

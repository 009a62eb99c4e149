// Benchmarks regenerating the paper's evaluation (one per figure) plus the
// ablations documented in DESIGN.md. Simulated delays are reported through
// b.ReportMetric as sim-seconds/op; cryptographic costs are wall-clock.
package ipls_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ipls/internal/cid"
	"ipls/internal/core"
	"ipls/internal/directory"
	"ipls/internal/group"
	"ipls/internal/ml"
	"ipls/internal/model"
	"ipls/internal/pedersen"
	"ipls/internal/scalar"
	"ipls/internal/storage"
)

// BenchmarkFig1Providers regenerates Figure 1: per-iteration delays for 16
// trainers, 1.3 MB partitions and 10 Mbps links, across provider counts
// plus the naive-indirect and direct baselines.
func BenchmarkFig1Providers(b *testing.B) {
	base := core.SimConfig{
		Trainers:                16,
		Partitions:              1,
		AggregatorsPerPartition: 1,
		PartitionBytes:          1_300_000,
		StorageNodes:            16,
		BandwidthMbps:           10,
	}
	run := func(b *testing.B, cfg core.SimConfig) {
		var res *core.SimResult
		var err error
		for i := 0; i < b.N; i++ {
			res, err = core.Simulate(cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.GradAggDelay.Seconds(), "agg-sim-s")
		b.ReportMetric(res.UploadDelayMean.Seconds(), "upload-sim-s")
		b.ReportMetric(res.TotalDelay.Seconds(), "total-sim-s")
	}
	for _, p := range []int{1, 2, 4, 8, 16} {
		cfg := base
		cfg.ProvidersPerAggregator = p
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) { run(b, cfg) })
	}
	naive := base
	naive.StorageNodes = 8
	b.Run("P=8-naive", func(b *testing.B) { run(b, naive) })
	direct := base
	direct.Direct = true
	b.Run("direct", func(b *testing.B) { run(b, direct) })
}

// BenchmarkFig2Aggregators regenerates Figure 2: delays and per-aggregator
// traffic versus the number of aggregators per partition.
func BenchmarkFig2Aggregators(b *testing.B) {
	for _, a := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("A=%d", a), func(b *testing.B) {
			var res *core.SimResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = core.Simulate(core.SimConfig{
					Trainers:                16,
					Partitions:              4,
					AggregatorsPerPartition: a,
					PartitionBytes:          1_100_000,
					StorageNodes:            8,
					BandwidthMbps:           20,
					StorageBandwidthMbps:    200,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.GradAggDelay.Seconds(), "grad-sim-s")
			b.ReportMetric(res.SyncDelay.Seconds(), "sync-sim-s")
			b.ReportMetric(float64(res.BytesPerAggregator)/1e6, "MB-per-agg")
		})
	}
}

// fig3Vector builds a quantized parameter vector of size n.
func fig3Vector(b *testing.B, f *scalar.Field, n int) []*big.Int {
	b.Helper()
	quant, err := scalar.NewQuantizer(f, scalar.DefaultShift)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = rng.NormFloat64()
	}
	enc, err := quant.EncodeVec(vec)
	if err != nil {
		b.Fatal(err)
	}
	return enc
}

// BenchmarkFig3Commit regenerates Figure 3: SHA-256 hashing versus Pedersen
// commitment time over the model parameters, per curve and strategy.
// Per-element costs are size-independent, so moderate n suffices to place
// the curves; cmd/iplsbench fig3 measures the paper's full size range.
func BenchmarkFig3Commit(b *testing.B) {
	sizes := []int{256, 1024, 4096}
	curves := []struct {
		name     string
		params   *pedersen.Params
		strategy group.MultiExpStrategy
	}{}
	k1, err := pedersen.Setup(group.Secp256k1(), 0, "bench-fig3")
	if err != nil {
		b.Fatal(err)
	}
	r1, err := pedersen.Setup(group.Secp256r1(), 0, "bench-fig3")
	if err != nil {
		b.Fatal(err)
	}
	r1f, err := pedersen.Setup(group.Secp256r1Fast(), 0, "bench-fig3")
	if err != nil {
		b.Fatal(err)
	}
	curves = append(curves,
		struct {
			name     string
			params   *pedersen.Params
			strategy group.MultiExpStrategy
		}{"secp256k1-naive", k1, group.StrategyNaive},
		struct {
			name     string
			params   *pedersen.Params
			strategy group.MultiExpStrategy
		}{"secp256r1-naive", r1, group.StrategyNaive},
		struct {
			name     string
			params   *pedersen.Params
			strategy group.MultiExpStrategy
		}{"secp256r1-pippenger", r1, group.StrategyPippenger},
		struct {
			name     string
			params   *pedersen.Params
			strategy group.MultiExpStrategy
		}{"secp256r1-fast-naive", r1f, group.StrategyNaive},
	)
	for _, n := range sizes {
		for _, c := range curves {
			vec := fig3Vector(b, c.params.Field(), n)
			if err := c.params.Extend(n); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.params.CommitWith(vec, c.strategy); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("sha256/n=%d", n), func(b *testing.B) {
			vec := fig3Vector(b, k1.Field(), n)
			block := model.Block{Values: vec}
			data, err := block.Encode()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				sha256.Sum256(data)
			}
		})
	}
}

// BenchmarkMultiExp ablates the multi-exponentiation strategies the paper
// cites as future optimization work ([27, 28]).
func BenchmarkMultiExp(b *testing.B) {
	curve := group.Secp256k1()
	field := scalar.NewField(curve.N)
	const n = 1024
	vec := fig3Vector(b, field, n)
	points := make([]group.Point, n)
	for i := range points {
		points[i] = curve.HashToPoint("bench-multiexp", i)
	}
	for _, s := range []group.MultiExpStrategy{group.StrategyNaive, group.StrategyWindowed, group.StrategyPippenger} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := curve.MultiScalarMult(points, vec, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSession builds an in-memory protocol stack for end-to-end benches.
func benchSession(b *testing.B, verifiable bool) (*core.Session, map[string][]float64) {
	b.Helper()
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID:                  fmt.Sprintf("bench-%v", verifiable),
		ModelDim:                256,
		Partitions:              4,
		Trainers:                []string{"t0", "t1", "t2", "t3"},
		AggregatorsPerPartition: 1,
		StorageNodes:            []string{"s0", "s1", "s2"},
		ProvidersPerAggregator:  1,
		Verifiable:              verifiable,
		TTrain:                  10 * time.Second,
		TSync:                   10 * time.Second,
		PollInterval:            time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	sess, _, _, err := core.NewLocalStack(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	deltas := make(map[string][]float64)
	for _, tr := range cfg.Trainers {
		d := make([]float64, 256)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		deltas[tr] = d
	}
	return sess, deltas
}

// BenchmarkIterationEndToEnd measures one full protocol iteration (4
// trainers, 4 partitions, 256 parameters) in plain and verifiable modes.
func BenchmarkIterationEndToEnd(b *testing.B) {
	for _, verifiable := range []bool{false, true} {
		b.Run(fmt.Sprintf("verifiable=%v", verifiable), func(b *testing.B) {
			sess, deltas := benchSession(b, verifiable)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.RunIteration(context.Background(), i, deltas, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDirectoryVerify measures the directory's update-verification
// cost (recommit + compare) for a 64-element partition.
func BenchmarkDirectoryVerify(b *testing.B) {
	params, err := pedersen.Setup(group.Secp256r1Fast(), 65, "bench-verify")
	if err != nil {
		b.Fatal(err)
	}
	field := params.Field()
	vec := fig3Vector(b, field, 65)
	com, err := params.Commit(vec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := params.Verify(vec, com)
		if err != nil || !ok {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkQuantizeBlock measures gradient quantization + encoding, the
// trainer-side fixed cost per partition, at a small block and at the
// benchmark's plain workloads' length. allocs/op is the same at both: a
// block costs its slabs and its output buffer, whatever its length.
func BenchmarkQuantizeBlock(b *testing.B) {
	field := scalar.NewField(group.Secp256k1().N)
	quant, err := scalar.NewQuantizer(field, scalar.DefaultShift)
	if err != nil {
		b.Fatal(err)
	}
	for _, length := range []int{1025, 8193} {
		part := benchPart(3, length-1)
		b.Run(fmt.Sprintf("L=%d", length), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				block, err := model.Quantize(quant, part)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := block.Encode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPart is a seeded gradient partition of n values.
func benchPart(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	part := make([]float64, n)
	for i := range part {
		part[i] = rng.NormFloat64()
	}
	return part
}

// BenchmarkMergeGetParallel has every worker ask one storage network for
// fan-in-2 merge-and-downloads of L = 8193 blocks, the operation a plain
// round performs sixteen times. The network lock covers only the snapshot
// of the inputs, not the arithmetic, so with
//
//	go test -run '^$' -bench MergeGetParallel -cpu 1,2
//
// ns/op falls as the cores double; it stayed flat while the merge was
// computed under the lock. The node holds 64 blocks, two rounds' uploads:
// with only the two being merged live, the collector runs every other
// merge and its cycles, not the merges, are what is timed.
func BenchmarkMergeGetParallel(b *testing.B) {
	field := scalar.NewField(group.Secp256k1().N)
	quant, err := scalar.NewQuantizer(field, scalar.DefaultShift)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	net := storage.NewNetwork(field, 1)
	defer net.Close()
	net.AddNode("ipfs-00")
	cids := make([]cid.CID, 64)
	for i := range cids {
		block, err := model.Quantize(quant, benchPart(int64(i), 8192))
		if err != nil {
			b.Fatal(err)
		}
		data, err := block.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if cids[i], err = net.Put(ctx, "ipfs-00", data); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			pair := 2 * int(next.Add(1)%int64(len(cids)/2))
			if _, err := net.MergeGet(ctx, "ipfs-00", cids[pair:pair+2]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPutParallel has every worker upload fresh L = 8193 blocks
// (262 KB, the plain workloads' size) to a four-node network on the disk
// store with two replicas, and delete each one again, as a round's cleanup
// does, so the disk holds only the blocks in flight. A put hashes its block
// once, before any lock, and writes both copies without the network lock,
// so with
//
//	go test -run '^$' -bench PutParallel -cpu 1,2
//
// ns/op falls as the cores double; it rose while the network lock covered
// the hashing and the file writes.
func BenchmarkPutParallel(b *testing.B) {
	field := scalar.NewField(group.Secp256k1().N)
	quant, err := scalar.NewQuantizer(field, scalar.DefaultShift)
	if err != nil {
		b.Fatal(err)
	}
	block, err := model.Quantize(quant, benchPart(1, 8192))
	if err != nil {
		b.Fatal(err)
	}
	base, err := block.Encode()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	net := storage.NewNetworkWithStore(field, 2, storage.StoreConfig{Backend: storage.BackendFS, Dir: b.TempDir()})
	defer net.Close()
	nodes := []string{"ipfs-00", "ipfs-01", "ipfs-02", "ipfs-03"}
	for _, id := range nodes {
		net.AddNode(id)
	}
	var next atomic.Int64
	b.SetBytes(int64(len(base)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		data := append([]byte(nil), base...)
		for pb.Next() {
			i := next.Add(1)
			// Fresh content every time, so the CAS never answers from its index.
			binary.BigEndian.PutUint64(data[len(data)-8:], uint64(i))
			c, err := net.Put(ctx, nodes[i%int64(len(nodes))], data)
			if err != nil {
				b.Error(err)
				return
			}
			net.DeleteAll(c)
		}
	})
}

// BenchmarkLocalTraining measures one trainer's per-round SGD cost, for
// scale against the protocol overheads.
func BenchmarkLocalTraining(b *testing.B) {
	data := ml.Blobs(240, 8, 4, 1.0, 4)
	m := ml.NewLogistic(8, 4)
	global := m.Params()
	cfg := ml.SGDConfig{LearningRate: 0.2, Epochs: 2, BatchSize: 32, Seed: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ml.LocalDelta(m, data, global, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectoryPublish measures gradient-publication cost including
// commitment accumulation.
func BenchmarkDirectoryPublish(b *testing.B) {
	params, err := pedersen.Setup(group.Secp256r1Fast(), 16, "bench-publish")
	if err != nil {
		b.Fatal(err)
	}
	vec := fig3Vector(b, params.Field(), 16)
	com, err := params.Commit(vec)
	if err != nil {
		b.Fatal(err)
	}
	dir := directory.New(params, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := dir.Publish(context.Background(), directory.Record{
			Addr: directory.Addr{
				Uploader:  fmt.Sprintf("t%d", i),
				Partition: 0,
				Iter:      i, // fresh address every time
				Type:      directory.TypeGradient,
			},
			CID:        "0000000000000000000000000000000000000000000000000000000000000000",
			Node:       "s0",
			Commitment: com,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

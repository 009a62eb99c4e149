package core

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"
	"time"

	"ipls/internal/cid"
	"ipls/internal/model"
	"ipls/internal/obs"
)

// TestRoundsMatchBlockReference: a round moves its blocks as wire bytes
// (quantized straight into the encoding, folded with model.Merge,
// dequantized from the bytes), and must land exactly where the big.Int
// Block path lands. For each aggregator behaviour and for a corrupt
// trainer, in plain and verifiable mode, it runs one round at ModelDim
// 1024 and rebuilds the round in the test from Quantize, Sum, Encode and
// Dequantize: the averaged delta must match bit for bit, the accepted
// global of every partition must have the reference's CID, and detection
// must be what the mode promises.
func TestRoundsMatchBlockReference(t *testing.T) {
	const dim = 1024
	cheater := AggregatorID(0, 0)
	for _, verifiable := range []bool{false, true} {
		for _, tc := range []struct {
			name     string
			behavior Behavior
			corrupt  string
		}{
			{"honest", BehaviorHonest, ""},
			{"drop-gradient", BehaviorDropGradient, ""},
			{"alter-gradient", BehaviorAlterGradient, ""},
			{"forge-update", BehaviorForgeUpdate, ""},
			{"corrupt-trainer", BehaviorHonest, "t5"},
		} {
			t.Run(fmt.Sprintf("verifiable=%v/%s", verifiable, tc.name), func(t *testing.T) {
				sess, _, dir := testStack(t, func(ts *TaskSpec) {
					ts.ModelDim = dim
					ts.Partitions = 4
					ts.Trainers = []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
					ts.AggregatorsPerPartition = 2
					ts.ProvidersPerAggregator = 2
					ts.StorageNodes = []string{"s0", "s1", "s2", "s3"}
					ts.Verifiable = verifiable
					ts.TTrain = 5 * time.Second
					ts.TSync = 5 * time.Second
				})
				reg := obs.NewRegistry()
				sess.SetMetrics(reg)
				deltas, _ := randomDeltas(sess.cfg.Trainers, dim, 5)
				opts := RoundOptions{
					Behaviors: map[string]Behavior{cheater: tc.behavior},
					Corrupt:   map[string]bool{tc.corrupt: tc.corrupt != ""},
				}
				ctx := context.Background()
				res, err := sess.runIteration(ctx, 0, deltas, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Incomplete) > 0 {
					t.Fatalf("partitions %v incomplete", res.Incomplete)
				}

				cheating := tc.behavior != BehaviorHonest
				if got, want := res.Detected(), verifiable && cheating; got != want {
					t.Errorf("Detected() = %v, want %v", got, want)
				}
				wantRejects := int64(0)
				if verifiable && tc.corrupt != "" {
					wantRejects = int64(sess.cfg.Spec.Partitions)
				}
				if got := reg.Counter("byzantine_rejects_total").Value(); got != wantRejects {
					t.Errorf("byzantine_rejects_total = %d, want %d", got, wantRejects)
				}

				parts := make([][]float64, sess.cfg.Spec.Partitions)
				for p := range parts {
					global := referenceGlobal(t, sess, deltas, p, verifiable, opts)
					data, err := global.Encode()
					if err != nil {
						t.Fatal(err)
					}
					rec, err := dir.Update(ctx, 0, p)
					if err != nil {
						t.Fatal(err)
					}
					if want := cid.Sum(data); rec.CID != want {
						t.Errorf("partition %d: accepted global %s, reference %s", p, rec.CID.Short(), want.Short())
					}
					if parts[p], err = model.Dequantize(sess.quant, global); err != nil {
						t.Fatal(err)
					}
				}
				want, err := model.Join(sess.cfg.Spec, parts)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Float64bits(res.AvgDelta[i]) != math.Float64bits(want[i]) {
						t.Fatalf("AvgDelta[%d] = %v, reference %v", i, res.AvgDelta[i], want[i])
					}
				}
			})
		}
	}
}

// referenceGlobal rebuilds partition p's accepted global update with the
// big.Int Block functions. Each aggregator sums its trainers' blocks in
// download groups, one per provider in node order, and applies its
// behaviour to the group sums; the global is the sum of the partials. In
// verifiable mode a cheating partial is caught and redone honestly, and a
// corrupt trainer's gradient is expunged, so the global is the honest
// trainers' sum.
func referenceGlobal(t *testing.T, sess *Session, deltas map[string][]float64, p int, verifiable bool, opts RoundOptions) model.Block {
	t.Helper()
	lo, hi := sess.cfg.Spec.Range(p)
	f := sess.field
	block := func(tr string) model.Block {
		b, err := model.Quantize(sess.quant, deltas[tr][lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if opts.Corrupt[tr] {
			b.Values[0] = f.Add(b.Values[0], big.NewInt(1))
		}
		return b
	}
	sum := func(bs ...model.Block) model.Block {
		s, err := model.Sum(f, bs...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var partials []model.Block
	for _, agg := range sess.cfg.Aggregators[p] {
		byNode := map[string][]model.Block{}
		for _, tr := range sess.cfg.TrainersOf(p, agg) {
			if verifiable && opts.Corrupt[tr] {
				continue
			}
			node := sess.cfg.UploadNode(p, tr)
			byNode[node] = append(byNode[node], block(tr))
		}
		nodes := make([]string, 0, len(byNode))
		for node := range byNode {
			nodes = append(nodes, node)
		}
		slices.Sort(nodes)
		groups := make([]model.Block, len(nodes))
		for i, node := range nodes {
			groups[i] = sum(byNode[node]...)
		}
		partial := sum(groups...)
		if !verifiable {
			partial = referenceBehavior(t, sess, groups, opts.Behaviors[agg])
		}
		partials = append(partials, partial)
	}
	return sum(partials...)
}

// referenceBehavior is applyBehavior on decoded blocks, as the Block path
// wrote it.
func referenceBehavior(t *testing.T, sess *Session, groups []model.Block, b Behavior) model.Block {
	t.Helper()
	f := sess.field
	sum, err := model.Sum(f, groups...)
	if err != nil {
		t.Fatal(err)
	}
	last := len(sum.Values) - 1
	switch b {
	case BehaviorHonest, 0:
	case BehaviorDropGradient:
		if len(groups) > 1 {
			if sum, err = model.Sum(f, groups[:len(groups)-1]...); err != nil {
				t.Fatal(err)
			}
			break
		}
		for i := 0; i < last; i++ {
			sum.Values[i] = new(big.Int)
		}
	case BehaviorAlterGradient:
		sum.Values[0] = f.Add(sum.Values[0], new(big.Int).Lsh(big.NewInt(1), 40))
	case BehaviorForgeUpdate:
		for i := 0; i < last; i++ {
			sum.Values[i] = f.Reduce(big.NewInt(int64(1_000_003*i + 7)))
		}
	default:
		t.Fatalf("no reference for behavior %v", b)
	}
	return sum
}

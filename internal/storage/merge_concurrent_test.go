package storage

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ipls/internal/cid"
	"ipls/internal/model"
	"ipls/internal/obs"
)

// TestMergeGetConcurrent: mergeGet computes outside the network lock, so
// merges overlap each other and every mutation of the network. Sixteen
// goroutines merge distinct and overlapping CID sets while others Put,
// DeleteAll, Fail/Recover and switch on CheatMerges. A merge either returns
// exactly the sequential sum of the bytes it asked for or a storage sentinel
// — never a partial or mixed block — and every success is counted once, on
// the node and in merge_ops_total. Run under -race by `make race`.
func TestMergeGetConcurrent(t *testing.T) {
	const (
		mergers  = 16
		rounds   = 30
		stable   = 8
		blockDim = 255
	)
	ctx := context.Background()
	n, q := newTestNetwork(t, 4, 2)
	reg := obs.NewRegistry()
	n.SetMetrics(reg)
	f := n.field
	rng := rand.New(rand.NewSource(21))
	encoded := func() []byte {
		part := make([]float64, blockDim)
		for i := range part {
			part[i] = rng.NormFloat64()
		}
		b, err := model.Quantize(q, part)
		if err != nil {
			t.Fatal(err)
		}
		data, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// Blocks 0..stable-1 stay put on node-00 (replica on node-01); the
	// last one is volatile: a goroutine keeps deleting and re-uploading it.
	datas := make([][]byte, stable+1)
	cids := make([]cid.CID, stable+1)
	for i := range datas {
		datas[i] = encoded()
		c, err := n.Put(ctx, "node-00", datas[i])
		if err != nil {
			t.Fatal(err)
		}
		cids[i] = c
	}
	const volatile = stable

	// sequential is the reference: the blocks summed one after the other
	// with nothing else running. cheated is what a CheatMerges node serves.
	sequential := func(set []int) (honest, cheated []byte) {
		blocks := make([]model.Block, len(set))
		for i, k := range set {
			b, err := model.DecodeBlock(datas[k])
			if err != nil {
				t.Fatal(err)
			}
			blocks[i] = b
		}
		sum, err := model.Sum(f, blocks...)
		if err != nil {
			t.Fatal(err)
		}
		if honest, err = sum.Encode(); err != nil {
			t.Fatal(err)
		}
		sum.Values[0] = f.Add(sum.Values[0], big.NewInt(1))
		if cheated, err = sum.Encode(); err != nil {
			t.Fatal(err)
		}
		return honest, cheated
	}
	type job struct {
		node            string
		set             []int
		honest, cheated []byte
	}
	jobs := make([]job, mergers)
	for g := range jobs {
		j := job{node: fmt.Sprintf("node-%02d", g%3)}
		switch {
		case g < 8: // distinct pairs
			j.set = []int{g, (g + 1) % stable}
		case g < 12: // one set shared by four goroutines, on three nodes
			j.set = []int{0, 1, 2, 3}
		default: // racing DeleteAll of the volatile block
			j.set = []int{g % stable, volatile}
		}
		j.honest, j.cheated = sequential(j.set)
		jobs[g] = j
	}

	var successes, failures atomic.Int64
	var work, noise sync.WaitGroup
	done := make(chan struct{})
	for g := range jobs {
		j := jobs[g]
		work.Add(1)
		go func() {
			defer work.Done()
			want := make([]cid.CID, len(j.set))
			for i, k := range j.set {
				want[i] = cids[k]
			}
			for r := 0; r < rounds; r++ {
				out, err := n.MergeGet(ctx, j.node, want)
				switch {
				case err != nil:
					failures.Add(1)
					if !isSentinel(err) {
						t.Errorf("merge of %v on %s: failure is no storage sentinel: %v", j.set, j.node, err)
					}
				case bytes.Equal(out, j.honest):
					successes.Add(1)
				case j.node == "node-02" && bytes.Equal(out, j.cheated):
					successes.Add(1)
				default:
					successes.Add(1)
					t.Errorf("merge of %v on %s returned neither the sequential sum nor an error", j.set, j.node)
				}
			}
		}()
	}
	disturb := func(step func(i int)) {
		noise.Add(1)
		go func() {
			defer noise.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
					step(i)
				}
			}
		}()
	}
	fresh := encoded()
	disturb(func(i int) { // uploads of new content, which nobody merges
		data := append([]byte(nil), fresh...)
		data[len(data)-1] = byte(i)
		data[len(data)-2] = byte(i >> 8)
		if _, err := n.Put(ctx, "node-03", data); err != nil {
			t.Errorf("put: %v", err)
		}
	})
	disturb(func(int) {
		n.DeleteAll(cids[volatile])
		if _, err := n.Put(ctx, "node-00", datas[volatile]); err != nil {
			t.Errorf("re-put of the volatile block: %v", err)
		}
	})
	disturb(func(i int) {
		if err := n.Fail("node-01"); err != nil {
			t.Errorf("fail: %v", err)
		}
		if err := n.Recover("node-01"); err != nil {
			t.Errorf("recover: %v", err)
		}
		if i == 20 { // node-02 turns dishonest while merges are in flight
			if err := n.CheatMerges("node-02"); err != nil {
				t.Errorf("cheat: %v", err)
			}
		}
	})
	work.Wait()
	close(done)
	noise.Wait()

	if successes.Load() == 0 {
		t.Fatalf("no merge succeeded (%d failed): the test exercised nothing", failures.Load())
	}
	var nodeOps int
	for _, id := range n.nodeIDs() {
		nd, err := n.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		nodeOps += nd.MergeOps
	}
	if int64(nodeOps) != successes.Load() {
		t.Errorf("nodes count %d merges, %d succeeded", nodeOps, successes.Load())
	}
	if got := reg.Counter("merge_ops_total").Value(); got != successes.Load() {
		t.Errorf("merge_ops_total = %d, %d succeeded", got, successes.Load())
	}
	t.Logf("%d merges succeeded, %d failed with a sentinel", successes.Load(), failures.Load())
}

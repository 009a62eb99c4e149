package storage

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"ipls/internal/cid"
	"ipls/internal/model"
)

// TestBlocksAreSharedReadOnly: stored blocks are write-once and a read
// returns them by reference (replicas share one slice on the memory
// backend), so nothing that runs after a read may write to the bytes the
// reader holds. Readers Get from the node being corrupted and from its
// replica, Fetch by content and MergeGet on the replica, while Corrupt and
// DeleteAll run. A read from the replica, a Fetch and a merge either fail
// with a storage sentinel or return the right bytes; every read that
// verified when it returned must still hash to its CID once the mutators
// are done. Run under -race by `make race`, which also reports any write
// to a slice a reader shares.
func TestBlocksAreSharedReadOnly(t *testing.T) {
	const (
		blocks  = 8
		readers = 4
		rounds  = 40
	)
	ctx := context.Background()
	n, q := newTestNetwork(t, 2, 2)
	rng := rand.New(rand.NewSource(46))
	datas := make([][]byte, blocks)
	cids := make([]cid.CID, blocks)
	for i := range datas {
		part := make([]float64, 63)
		for j := range part {
			part[j] = rng.NormFloat64()
		}
		data, err := model.QuantizeEncode(q, part)
		if err != nil {
			t.Fatal(err)
		}
		if cids[i], err = n.Put(ctx, "node-00", data); err != nil {
			t.Fatal(err)
		}
		// Put took ownership of data; the test keeps its own copy.
		datas[i] = bytes.Clone(data)
	}
	merges := make([][]byte, blocks-1)
	for i := range merges {
		var err error
		if merges[i], err = model.Merge(n.field, datas[i], datas[i+1]); err != nil {
			t.Fatal(err)
		}
	}

	// gone is a failed read that the mutators explain: the block was
	// deleted, or the one copy left is the corrupt one.
	gone := func(err error) bool {
		return errors.Is(err, ErrNotFound) || errors.Is(err, ErrIntegrity)
	}
	type read struct {
		c    cid.CID
		data []byte
	}
	var mu sync.Mutex
	var held []read
	keep := func(c cid.CID, data []byte) {
		mu.Lock()
		held = append(held, read{c, data})
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				i := (r + k) % blocks
				c := cids[i]
				// The corrupted node may serve its bad copy; keep only a
				// read that verified.
				if data, err := n.Get(ctx, "node-00", c); err == nil && cid.Verify(data, c) {
					keep(c, data)
				}
				if data, err := n.Get(ctx, "node-01", c); err == nil {
					if !cid.Verify(data, c) {
						t.Errorf("replica read of block %d does not hash to its CID", i)
						return
					}
					keep(c, data)
				} else if !gone(err) {
					t.Errorf("replica read of block %d: %v", i, err)
					return
				}
				if data, err := n.Fetch(ctx, c); err == nil {
					if !cid.Verify(data, c) {
						t.Errorf("fetch of block %d does not hash to its CID", i)
						return
					}
					keep(c, data)
				} else if !gone(err) {
					t.Errorf("fetch of block %d: %v", i, err)
					return
				}
				if i+1 < blocks {
					out, err := n.MergeGet(ctx, "node-01", []cid.CID{c, cids[i+1]})
					if err == nil && !bytes.Equal(out, merges[i]) {
						t.Errorf("merge of blocks %d and %d differs from their sum", i, i+1)
						return
					}
					if err != nil && !gone(err) {
						t.Errorf("merge of blocks %d and %d: %v", i, i+1, err)
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, c := range cids {
			// Either may find the block already gone.
			_ = n.Corrupt("node-00", c)
			runtime.Gosched()
			if i%2 == 1 {
				n.DeleteAll(c)
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()

	if len(held) == 0 {
		t.Fatal("no read succeeded")
	}
	for _, r := range held {
		if !cid.Verify(r.data, r.c) {
			t.Fatalf("bytes read for %s were written to after the read", r.c.Short())
		}
	}
	for i, c := range cids {
		if i%2 == 1 {
			continue
		}
		data, err := n.Get(ctx, "node-01", c)
		if err != nil || !bytes.Equal(data, datas[i]) {
			t.Errorf("block %d on the untouched replica: %v", i, err)
		}
	}
}

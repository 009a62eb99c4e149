package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"ipls/internal/cid"
)

// isSentinel reports whether err is one of the storage network's sentinels.
func isSentinel(err error) bool {
	for _, s := range []error{ErrNotFound, ErrNodeDown, ErrNodeDeparted, ErrPartitioned, ErrUnknownNode} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// TestPutConcurrent: put hashes and writes outside the network lock, so puts
// overlap each other and every membership change. Sixteen putters upload
// (two at a time the same content, all of them a few volatile blocks) while
// other goroutines Fail/Recover node-01, Partition/Heal node-02,
// Depart/Rejoin node-03, DeleteAll the volatile blocks, GC everything
// nobody put, and RepairScan. Afterwards:
//   - every successful put can be read from its primary, unless its block was
//     volatile or its primary departed since;
//   - no provider record names a departed node, or a node whose store lacks
//     the block, and the departed node's datastore is empty;
//   - every failure is a storage sentinel.
//
// Run under -race by `make race`, on both backends in CI's matrix.
func TestPutConcurrent(t *testing.T) {
	const (
		putters = 16
		rounds  = 24
	)
	ctx := context.Background()
	n, _ := newTestNetwork(t, 4, 2)
	for _, nd := range n.nodes {
		nd.store = yieldingStore{nd.store}
	}
	rng := rand.New(rand.NewSource(27))
	block := func() []byte {
		data := make([]byte, 2048)
		rng.Read(data)
		return data
	}
	// Putters 2k and 2k+1 upload the same stable blocks, to different
	// primaries, and every putter uploads the four volatile blocks in turn
	// while another goroutine keeps deleting them.
	blocks := make([][][]byte, putters/2)
	keep := make(map[cid.CID]bool)
	for g := range blocks {
		blocks[g] = make([][]byte, rounds)
		for r := range blocks[g] {
			blocks[g][r] = block()
			keep[cid.Sum(blocks[g][r])] = true
		}
	}
	volatiles := make([][]byte, 4)
	volatile := make(map[cid.CID]bool)
	var volatileCIDs []cid.CID
	for i := range volatiles {
		volatiles[i] = block()
		c := cid.Sum(volatiles[i])
		keep[c], volatile[c] = true, true
		volatileCIDs = append(volatileCIDs, c)
	}

	type success struct {
		c       cid.CID
		primary string
	}
	var mu sync.Mutex
	var successes []success
	failures := 0
	var work, noise sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < putters; g++ {
		primary := fmt.Sprintf("node-%02d", g%4)
		mine := blocks[g/2]
		work.Add(1)
		go func() {
			defer work.Done()
			for r, stable := range mine {
				for _, data := range [][]byte{stable, volatiles[(g+r)%len(volatiles)]} {
					c, err := n.Put(ctx, primary, data)
					mu.Lock()
					switch {
					case err == nil && c != cid.Sum(data):
						t.Errorf("put on %s returned %s, not the block's CID", primary, c.Short())
					case err == nil:
						successes = append(successes, success{c, primary})
					case !isSentinel(err):
						t.Errorf("put on %s: failure is no storage sentinel: %v", primary, err)
					default:
						failures++
					}
					mu.Unlock()
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
	check := func(what string, err error) {
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	disturb(func(int) {
		check("fail", n.Fail("node-01"))
		check("recover", n.Recover("node-01"))
	})
	disturb(func(int) {
		check("partition", n.Partition([]string{"node-02"}))
		check("heal", n.Heal())
	})
	disturb(func(i int) {
		if i > 0 {
			check("rejoin", n.Rejoin("node-03"))
		}
		check("depart", n.Depart("node-03")) // the run ends with node-03 departed
	})
	disturb(func(i int) { n.DeleteAll(volatileCIDs[i%len(volatileCIDs)]) })
	disturb(func(i int) { // uploads nobody keeps, for GC to collect
		data := noiseBlock(i)
		if _, err := n.Put(ctx, "node-00", data); err != nil && !isSentinel(err) {
			t.Errorf("noise put: %v", err)
		}
		_, err := n.GC(ctx, keep)
		check("gc", err)
	})
	disturb(func(int) {
		_, err := n.RepairScan(ctx)
		check("repair", err)
	})
	work.Wait()
	close(done)
	noise.Wait()

	if len(successes) == 0 {
		t.Fatalf("no put succeeded (%d failed): the test exercised nothing", failures)
	}
	for _, s := range successes {
		if volatile[s.c] || s.primary == "node-03" {
			continue
		}
		data, err := n.Get(ctx, s.primary, s.c)
		if err != nil {
			t.Errorf("put of %s on %s succeeded, then Get: %v", s.c.Short(), s.primary, err)
		} else if !cid.Verify(data, s.c) {
			t.Errorf("put of %s on %s succeeded, then Get returned other bytes", s.c.Short(), s.primary)
		}
	}
	n.mu.Lock()
	if keys, _ := n.nodes["node-03"].store.Keys(ctx); len(keys) != 0 {
		t.Errorf("departed node-03 still holds %d blocks written after its datastore was wiped", len(keys))
	}
	for c, ids := range n.providers {
		for id := range ids {
			nd := n.nodes[id]
			if nd.departed {
				t.Errorf("provider record for %s names departed %s", c.Short(), id)
			}
			if has, _ := nd.store.Has(ctx, c); !has {
				t.Errorf("provider record for %s names %s, whose store lacks it", c.Short(), id)
			}
		}
	}
	n.mu.Unlock()
	t.Logf("%d puts succeeded, %d failed with a sentinel", len(successes), failures)
}

// TestPutRacingMembership pins the ordering rule deterministically: the
// copy on one target is held mid-write while that node fails, departs or is
// partitioned away. The put then announces only the nodes still serving,
// fails with the node's sentinel if it was the primary, and leaves nothing
// on a departed node.
func TestPutRacingMembership(t *testing.T) {
	changes := []struct {
		name     string
		apply    func(n *Network, id string) error
		sentinel error
	}{
		{"fail", func(n *Network, id string) error { return n.Fail(id) }, ErrNodeDown},
		{"depart", func(n *Network, id string) error { return n.Depart(id) }, ErrNodeDeparted},
		{"partition", func(n *Network, id string) error { return n.Partition([]string{id}) }, ErrPartitioned},
	}
	for _, ch := range changes {
		for _, target := range []string{"node-00", "node-01"} { // primary, replica
			t.Run(ch.name+"/"+target, func(t *testing.T) {
				ctx := context.Background()
				n, _ := newTestNetwork(t, 3, 2)
				gate := &gatedStore{BlockStore: n.nodes[target].store, entered: make(chan struct{}), release: make(chan struct{})}
				n.nodes[target].store = gate
				data := []byte("block written while its node changes")
				type result struct {
					c   cid.CID
					err error
				}
				res := make(chan result)
				go func() {
					c, err := n.Put(ctx, "node-00", data) // replica on node-01
					res <- result{c, err}
				}()
				<-gate.entered
				if err := ch.apply(n, target); err != nil {
					t.Fatal(err)
				}
				close(gate.release)
				r := <-res
				c := cid.Sum(data)
				other := map[string]string{"node-00": "node-01", "node-01": "node-00"}[target]
				if target == "node-00" {
					if !errors.Is(r.err, ch.sentinel) {
						t.Fatalf("put: %v, want %v", r.err, ch.sentinel)
					}
				} else if r.err != nil || r.c != c {
					t.Fatalf("put = %s, %v; want success", r.c.Short(), r.err)
				}
				if got := n.providerIDs(c); len(got) != 1 || got[0] != other {
					t.Fatalf("providers %v, want only %s", got, other)
				}
				// Blocks survive a failure or a partition, not a departure.
				has, _ := gate.Has(ctx, c)
				if want := ch.name != "depart"; has != want {
					t.Fatalf("%s holds the block: %v, want %v", target, has, want)
				}
			})
		}
	}
}

// gatedStore holds its first write until released, announcing on entered
// that the write has begun.
type gatedStore struct {
	BlockStore
	entered, release chan struct{}
	once             sync.Once
}

func (s *gatedStore) PutKnown(ctx context.Context, c cid.CID, data []byte) error {
	s.once.Do(func() {
		close(s.entered)
		<-s.release
	})
	return s.BlockStore.PutKnown(ctx, c, data)
}

// yieldingStore gives the scheduler a turn around every write, widening the
// window between a put's store write and its announcement that a racing
// membership change or delete can fall into.
type yieldingStore struct{ BlockStore }

func (s yieldingStore) PutKnown(ctx context.Context, c cid.CID, data []byte) error {
	runtime.Gosched()
	err := s.BlockStore.PutKnown(ctx, c, data)
	runtime.Gosched()
	return err
}

// noiseBlock is the i-th noise block: distinct for every i, small, and
// unlike any block the putters upload.
func noiseBlock(i int) []byte { return []byte(fmt.Sprintf("noise block %d", i)) }

// TestFSStoreConcurrentSamePut: the disk store writes files outside its
// index lock, so concurrent Puts of one block all write; the block must
// still be indexed, and its bytes counted, once.
func TestFSStoreConcurrentSamePut(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := bytes.Repeat([]byte("same block "), 400)
	want := cid.Sum(data)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c, err := s.Put(ctx, data); err != nil || c != want {
				t.Errorf("Put = %s, %v", c.Short(), err)
			}
		}()
	}
	wg.Wait()
	keys, err := s.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || s.StoredBytes() != int64(len(data)) {
		t.Fatalf("%d keys, %d bytes counted; want 1 key of %d bytes", len(keys), s.StoredBytes(), len(data))
	}
	if got, err := s.Get(ctx, want); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after concurrent Puts: %v", err)
	}
	if left, _ := os.ReadDir(filepath.Join(dir, "tmp")); len(left) != 0 {
		t.Fatalf("%d staging files left behind", len(left))
	}
}

// TestFSStorePutRacesDeleteAndClose: Puts and Deletes of the same blocks
// race, and then Close races more Puts. While open, the index and the files
// agree for every block and the byte count matches the index; Puts that
// lose to Close fail with ErrStoreClosed; and a reopened store serves every
// block it indexes.
func TestFSStorePutRacesDeleteAndClose(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	datas := make([][]byte, 8)
	for i := range datas {
		datas[i] = bytes.Repeat([]byte{byte(i + 1)}, 1024+i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				data := datas[(g+r)%len(datas)]
				if g%2 == 0 {
					if _, err := s.Put(ctx, data); err != nil {
						t.Errorf("Put: %v", err)
					}
				} else if err := s.Delete(ctx, cid.Sum(data)); err != nil {
					t.Errorf("Delete: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	var indexed int64
	for _, data := range datas {
		c := cid.Sum(data)
		has, err := s.Has(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		_, statErr := os.Stat(s.path(c))
		if has != (statErr == nil) {
			t.Errorf("block %s: indexed %v, file present %v", c.Short(), has, statErr == nil)
		}
		if has {
			indexed += int64(len(data))
		}
	}
	if s.StoredBytes() != indexed {
		t.Errorf("StoredBytes %d, indexed blocks hold %d", s.StoredBytes(), indexed)
	}

	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				data := append(bytes.Repeat([]byte{byte(g)}, 512), byte(r))
				if _, err := s.Put(ctx, data); err != nil && !errors.Is(err, ErrStoreClosed) {
					t.Errorf("Put racing Close: %v", err)
				}
			}
		}()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := s.Put(ctx, []byte("after close")); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("Put after Close: %v", err)
	}

	reopened, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	keys, err := reopened.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range keys {
		if _, err := reopened.Get(ctx, c); err != nil {
			t.Errorf("reopened store indexes %s but cannot serve it: %v", c.Short(), err)
		}
	}
}

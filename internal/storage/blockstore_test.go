package storage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ipls/internal/cid"
	"ipls/internal/obs"
)

// runStoreContract exercises the BlockStore contract shared by every
// backend: round trips, dedup, Has/Keys/Delete semantics, context
// cancellation, and closed-store behavior.
func runStoreContract(t *testing.T, open func(t *testing.T) BlockStore) {
	t.Helper()
	ctx := context.Background()

	t.Run("RoundTrip", func(t *testing.T) {
		s := open(t)
		data := []byte("block payload")
		c, err := s.Put(ctx, data)
		if err != nil {
			t.Fatal(err)
		}
		if !cid.Verify(data, c) {
			t.Fatal("Put returned a CID that does not match the data")
		}
		got, err := s.Get(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(data) {
			t.Fatal("Get returned different bytes")
		}
		if ok, err := s.Has(ctx, c); err != nil || !ok {
			t.Fatalf("Has = %v, %v; want true", ok, err)
		}
	})

	t.Run("GetMissing", func(t *testing.T) {
		s := open(t)
		if _, err := s.Get(ctx, cid.Sum([]byte("absent"))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("want ErrNotFound, got %v", err)
		}
		if ok, err := s.Has(ctx, cid.Sum([]byte("absent"))); err != nil || ok {
			t.Fatalf("Has on absent = %v, %v; want false", ok, err)
		}
	})

	t.Run("PutDedups", func(t *testing.T) {
		s := open(t)
		data := []byte("same bytes twice")
		c1, err := s.Put(ctx, data)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := s.Put(ctx, append([]byte(nil), data...))
		if err != nil {
			t.Fatal(err)
		}
		if c1 != c2 {
			t.Fatal("same content produced different CIDs")
		}
		keys, err := s.Keys(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 1 {
			t.Fatalf("want 1 key after duplicate put, got %d", len(keys))
		}
	})

	t.Run("DeleteAndKeys", func(t *testing.T) {
		s := open(t)
		var want []cid.CID
		for i := 0; i < 5; i++ {
			c, err := s.Put(ctx, []byte(fmt.Sprintf("block-%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, c)
		}
		keys, err := s.Keys(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 5 {
			t.Fatalf("want 5 keys, got %d", len(keys))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatal("Keys not sorted")
			}
		}
		if err := s.Delete(ctx, want[0]); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(ctx, want[0]); err != nil {
			t.Fatalf("deleting absent block should be a no-op, got %v", err)
		}
		if ok, _ := s.Has(ctx, want[0]); ok {
			t.Fatal("deleted block still present")
		}
		keys, _ = s.Keys(ctx)
		if len(keys) != 4 {
			t.Fatalf("want 4 keys after delete, got %d", len(keys))
		}
	})

	t.Run("ContextCancelled", func(t *testing.T) {
		s := open(t)
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.Put(cancelled, []byte("x")); !errors.Is(err, context.Canceled) {
			t.Fatalf("Put with cancelled ctx: got %v", err)
		}
		if _, err := s.Get(cancelled, cid.Sum([]byte("x"))); !errors.Is(err, context.Canceled) {
			t.Fatalf("Get with cancelled ctx: got %v", err)
		}
	})

	t.Run("Closed", func(t *testing.T) {
		s := open(t)
		c, err := s.Put(ctx, []byte("pre-close"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(ctx, c); !errors.Is(err, ErrStoreClosed) {
			t.Fatalf("Get after Close: got %v", err)
		}
		if _, err := s.Put(ctx, []byte("post-close")); !errors.Is(err, ErrStoreClosed) {
			t.Fatalf("Put after Close: got %v", err)
		}
	})

	t.Run("SizerAndCorrupter", func(t *testing.T) {
		s := open(t)
		data := []byte("sized and corruptible")
		c, err := s.Put(ctx, append([]byte(nil), data...))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.StoredBytes(); got != int64(len(data)) {
			t.Fatalf("StoredBytes = %d, want %d", got, len(data))
		}
		if err := s.Corrupt(ctx, cid.Sum([]byte("absent"))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Corrupt of an absent block: got %v, want ErrNotFound", err)
		}
		if err := s.Corrupt(ctx, c); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(ctx, c)
		if err == nil {
			if cid.Verify(got, c) {
				t.Fatal("corrupted block still verifies")
			}
		} else if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("corrupted Get: got %v, want bytes or ErrIntegrity", err)
		}
	})
}

func TestMemStoreContract(t *testing.T) {
	runStoreContract(t, func(t *testing.T) BlockStore { return NewMemStore() })
}

func TestFSStoreContract(t *testing.T) {
	runStoreContract(t, func(t *testing.T) BlockStore {
		s, err := OpenFSStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestCachedFSStoreContract(t *testing.T) {
	runStoreContract(t, func(t *testing.T) BlockStore {
		s, err := OpenFSStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return NewCachedStore(s, 3)
	})
}

func TestFSStoreReopenServesBlocks(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cids []cid.CID
	for i := 0; i < 10; i++ {
		c, err := s.Put(ctx, []byte(fmt.Sprintf("durable block %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		cids = append(cids, c)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the same directory: the index is rebuilt by scanning the
	// fanout layout and every block round-trips with its hash intact.
	s2, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	keys, err := s2.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(cids) {
		t.Fatalf("reopened store has %d keys, want %d", len(keys), len(cids))
	}
	for _, c := range cids {
		data, err := s2.Get(ctx, c)
		if err != nil {
			t.Fatalf("reopened Get(%s): %v", c.Short(), err)
		}
		if !cid.Verify(data, c) {
			t.Fatalf("reopened block %s fails verification", c.Short())
		}
	}
}

func TestFSStoreCorruptOnDiskSurfacesErrIntegrity(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := s.Put(ctx, []byte("bytes that will rot"))
	if err != nil {
		t.Fatal(err)
	}
	// Rot the file behind the store's back, as a failing disk would.
	p := filepath.Join(dir, string(c)[:2], string(c))
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, c); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("want ErrIntegrity from rotted block, got %v", err)
	}
}

func TestFSStoreAtomicPutCleansStaging(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// A leftover staging file from a crashed writer is cleared on Open.
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "tmp", "put-crashed")
	if err := os.WriteFile(stale, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale staging file survived Open")
	}
	if _, err := s.Put(ctx, []byte("fresh block")); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("staging dir not empty after Put: %d files", len(left))
	}
}

func TestCachedStoreHitMissMetricsAndEviction(t *testing.T) {
	ctx := context.Background()
	fs, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCachedStore(fs, 2)
	defer cs.Close()
	reg := obs.NewRegistry()
	hits := reg.Counter("storage_cache_hits_total")
	misses := reg.Counter("storage_cache_misses_total")
	cs.SetMetrics(hits, misses)

	c1, _ := cs.Put(ctx, []byte("one"))
	c2, _ := cs.Put(ctx, []byte("two"))
	// Both admitted by write-through: hits.
	if _, err := cs.Get(ctx, c1); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Get(ctx, c2); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != 2 || misses.Value() != 0 {
		t.Fatalf("after warm gets: hits=%d misses=%d", hits.Value(), misses.Value())
	}
	// Third block evicts the LRU entry (c1).
	c3, _ := cs.Put(ctx, []byte("three"))
	if cs.lru.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", cs.lru.Len())
	}
	if _, err := cs.Get(ctx, c1); err != nil {
		t.Fatal(err)
	}
	if misses.Value() != 1 {
		t.Fatalf("evicted block should miss: misses=%d", misses.Value())
	}
	// The miss readmitted c1, evicting c2 (LRU among {c3, c1}? — order is
	// c3 then c1 most-recent; c3 was least recently used... verify via a
	// hit on c1).
	if _, err := cs.Get(ctx, c1); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != 3 {
		t.Fatalf("readmitted block should hit: hits=%d", hits.Value())
	}
	_ = c3
}

func TestCachedStoreCorruptEvicts(t *testing.T) {
	ctx := context.Background()
	fs, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCachedStore(fs, 4)
	defer cs.Close()
	c, err := cs.Put(ctx, []byte("cached then rotted"))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache, then corrupt on disk: the cache must not keep
	// serving the clean copy and mask the rot.
	if _, err := cs.Get(ctx, c); err != nil {
		t.Fatal(err)
	}
	if err := cs.Corrupt(ctx, c); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Get(ctx, c); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("want ErrIntegrity after corrupt, got %v (cache masked the rot?)", err)
	}
}

func TestNetworkGC(t *testing.T) {
	ctx := context.Background()
	n, _ := newTestNetwork(t, 3, 2)
	keepData := []byte("current iteration block")
	dropData := []byte("superseded iteration block")
	keepCID, err := n.Put(ctx, "node-00", keepData)
	if err != nil {
		t.Fatal(err)
	}
	dropCID, err := n.Put(ctx, "node-01", dropData)
	if err != nil {
		t.Fatal(err)
	}
	report, err := n.GC(ctx, map[cid.CID]bool{keepCID: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.Kept != 1 || report.Collected != 1 {
		t.Fatalf("GC report: %+v", report)
	}
	if report.BytesFreed < int64(len(dropData)) {
		t.Fatalf("BytesFreed = %d, want >= %d (replicas)", report.BytesFreed, len(dropData))
	}
	if _, err := n.Fetch(ctx, dropCID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("collected block still fetchable: %v", err)
	}
	if got, err := n.Fetch(ctx, keepCID); err != nil || string(got) != string(keepData) {
		t.Fatalf("kept block lost: %v", err)
	}
	if len(n.providerIDs(dropCID)) != 0 {
		t.Fatal("collected block still has provider records")
	}
	if got := n.reg.Counter("storage_gc_blocks_total").Value(); got != 1 {
		t.Fatalf("storage_gc_blocks_total = %d, want 1", got)
	}
}

func TestHealthReportsBackendErrorDistinctly(t *testing.T) {
	if testBackend() != BackendFS {
		t.Skip("backend-error readiness is a disk-backend behavior")
	}
	ctx := context.Background()
	n, _ := newTestNetwork(t, 2, 1)
	c, err := n.Put(ctx, "node-00", []byte("will rot on disk"))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Health(); err != nil {
		t.Fatalf("healthy network: %v", err)
	}
	if err := n.Corrupt("node-00", c); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get(ctx, "node-00", c); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("want ErrIntegrity, got %v", err)
	}
	herr := n.Health()
	if !errors.Is(herr, ErrBackend) {
		t.Fatalf("Health should report the backend failure via ErrBackend, got %v", herr)
	}
	// Distinct from replication failures: all nodes are live.
	if errors.Is(herr, ErrNodeDown) {
		t.Fatal("backend failure misreported as node-down")
	}
}

func TestNetworkRestartServesBlocksWithoutReReplication(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := StoreConfig{Backend: BackendFS, Dir: dir, CacheBlocks: 4}
	n1 := NewNetworkWithStore(nil, 1, cfg)
	n1.AddNode("node-00")
	var cids []cid.CID
	for i := 0; i < 6; i++ {
		c, err := n1.Put(ctx, "node-00", []byte(fmt.Sprintf("pre-restart %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		cids = append(cids, c)
	}
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh network over the same directory. AddNode reopens
	// the store and re-announces its blocks, so provider records are
	// restored without any re-replication traffic.
	n2 := NewNetworkWithStore(nil, 1, cfg)
	n2.AddNode("node-00")
	defer n2.Close()
	for _, c := range cids {
		data, err := n2.Get(ctx, "node-00", c)
		if err != nil {
			t.Fatalf("post-restart Get(%s): %v", c.Short(), err)
		}
		if !cid.Verify(data, c) {
			t.Fatalf("post-restart block %s fails verification", c.Short())
		}
		provs := n2.providerIDs(c)
		if len(provs) != 1 || provs[0] != "node-00" {
			t.Fatalf("provider records not restored for %s: %v", c.Short(), provs)
		}
	}
	if got := n2.reg.Counter("repair_blocks_total").Value(); got != 0 {
		t.Fatalf("restart triggered re-replication: repair_blocks_total=%d", got)
	}
}

func TestAddNodeUnwritableDirFallsBackAndReportsBackend(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "blocked")
	// A plain file where the store root should be makes MkdirAll fail.
	if err := os.WriteFile(blocked, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	n := NewNetworkWithStore(nil, 1, StoreConfig{Backend: BackendFS, Dir: blocked})
	defer n.Close()
	nd := n.AddNode("node-00")
	if err := n.Health(); !errors.Is(err, ErrBackend) {
		t.Fatalf("Health should carry the open failure as ErrBackend, got %v", err)
	}
	// The node still works (memory fallback), so the network degrades
	// rather than panics.
	if _, err := n.Put(context.Background(), "node-00", []byte("still works")); err != nil {
		t.Fatal(err)
	}
	if nd.store == nil {
		t.Fatal("fallback store missing")
	}
}

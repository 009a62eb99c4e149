package storage

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"ipls/internal/cid"
	"ipls/internal/group"
	"ipls/internal/model"
	"ipls/internal/scalar"
)

// testBackend returns the BlockStore backend under test, selected by the
// IPLS_STORE env var ("mem", the default, or "fs") so the whole suite runs
// against both implementations in CI.
func testBackend() string {
	if b := os.Getenv("IPLS_STORE"); b != "" {
		return b
	}
	return BackendMem
}

// testStoreConfig builds a StoreConfig for the selected backend, rooting
// the fs backend in a per-test temp dir (cleaned up by the test runner,
// race mode included).
func testStoreConfig(t *testing.T) StoreConfig {
	t.Helper()
	cfg := StoreConfig{Backend: testBackend()}
	if cfg.Backend == BackendFS {
		cfg.Dir = t.TempDir()
		cfg.CacheBlocks = 8
	}
	return cfg
}

func newTestNetwork(t *testing.T, nodes, replicas int) (*Network, *scalar.Quantizer) {
	t.Helper()
	f := scalar.NewField(group.Secp256k1().N)
	q, err := scalar.NewQuantizer(f, scalar.DefaultShift)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetworkWithStore(f, replicas, testStoreConfig(t))
	t.Cleanup(func() { n.Close() })
	for i := 0; i < nodes; i++ {
		n.AddNode(fmt.Sprintf("node-%02d", i))
	}
	return n, q
}

func TestPutGetRoundTrip(t *testing.T) {
	n, _ := newTestNetwork(t, 3, 1)
	data := []byte("gradient bytes")
	c, err := n.Put(context.Background(), "node-00", data)
	if err != nil {
		t.Fatal(err)
	}
	if !cid.Verify(data, c) {
		t.Fatal("returned CID does not match data")
	}
	got, err := n.Get(context.Background(), "node-00", c)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("data mismatch")
	}
	// Unreplicated: other nodes do not hold the block.
	if _, err := n.Get(context.Background(), "node-01", c); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound from non-holder, got %v", err)
	}
}

func TestReplicationAndFetch(t *testing.T) {
	n, _ := newTestNetwork(t, 4, 2)
	data := []byte("replicated block")
	c, err := n.Put(context.Background(), "node-01", data)
	if err != nil {
		t.Fatal(err)
	}
	// Ring successor node-02 should also hold it.
	if _, err := n.Get(context.Background(), "node-02", c); err != nil {
		t.Fatalf("replica missing: %v", err)
	}
	// Primary fails; content routing still finds the replica.
	if err := n.Fail("node-01"); err != nil {
		t.Fatal(err)
	}
	got, err := n.Fetch(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("fetched data mismatch")
	}
}

func TestReplicationSkipsDownNodes(t *testing.T) {
	n, _ := newTestNetwork(t, 4, 2)
	if err := n.Fail("node-02"); err != nil {
		t.Fatal(err)
	}
	c, err := n.Put(context.Background(), "node-01", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// Replica skipped the down node and landed on node-03.
	if _, err := n.Get(context.Background(), "node-03", c); err != nil {
		t.Fatalf("replica should be on node-03: %v", err)
	}
}

func TestFailRecover(t *testing.T) {
	n, _ := newTestNetwork(t, 2, 1)
	c, err := n.Put(context.Background(), "node-00", []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Fail("node-00"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get(context.Background(), "node-00", c); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("expected ErrNodeDown, got %v", err)
	}
	if _, err := n.Put(context.Background(), "node-00", []byte("z")); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("expected ErrNodeDown on put, got %v", err)
	}
	if _, err := n.Fetch(context.Background(), c); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound when sole holder is down, got %v", err)
	}
	if err := n.Recover("node-00"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get(context.Background(), "node-00", c); err != nil {
		t.Fatalf("node should serve blocks after recovery: %v", err)
	}
}

func TestMergeGetEqualsSequentialSum(t *testing.T) {
	// Merge-and-download must be indistinguishable (in content) from
	// downloading every gradient and summing locally (§III-E).
	n, q := newTestNetwork(t, 2, 1)
	f := n.field
	rng := rand.New(rand.NewSource(1))
	const trainers = 8
	const dim = 12
	var cids []cid.CID
	var blocks []model.Block
	for i := 0; i < trainers; i++ {
		part := make([]float64, dim)
		for j := range part {
			part[j] = rng.NormFloat64()
		}
		b, err := model.Quantize(q, part)
		if err != nil {
			t.Fatal(err)
		}
		data, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		c, err := n.Put(context.Background(), "node-00", data)
		if err != nil {
			t.Fatal(err)
		}
		cids = append(cids, c)
		blocks = append(blocks, b)
	}
	merged, err := n.MergeGet(context.Background(), "node-00", cids)
	if err != nil {
		t.Fatal(err)
	}
	mergedBlock, err := model.DecodeBlock(merged)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.Sum(f, blocks...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Values {
		if mergedBlock.Values[i].Cmp(want.Values[i]) != 0 {
			t.Fatalf("merged element %d differs from local sum", i)
		}
	}
	nd, _ := n.Node("node-00")
	if nd.MergeOps != 1 || nd.MergedBlocks != trainers {
		t.Fatalf("merge accounting wrong: ops=%d blocks=%d", nd.MergeOps, nd.MergedBlocks)
	}
}

func TestMergeGetFetchesMissingFromPeers(t *testing.T) {
	n, q := newTestNetwork(t, 2, 1)
	b1, _ := model.Quantize(q, []float64{1, 2})
	b2, _ := model.Quantize(q, []float64{3, 4})
	d1, _ := b1.Encode()
	d2, _ := b2.Encode()
	c1, err := n.Put(context.Background(), "node-00", d1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := n.Put(context.Background(), "node-01", d2) // lives on the other node
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.MergeGet(context.Background(), "node-00", []cid.CID{c1, c2}); err != nil {
		t.Fatal(err)
	}
	if got := n.reg.Counter("remote_fetches_total").Value(); got != 1 {
		t.Fatalf("expected 1 remote fetch, got %d", got)
	}
}

func TestMergeGetErrors(t *testing.T) {
	n, q := newTestNetwork(t, 2, 1)
	if _, err := n.MergeGet(context.Background(), "node-00", nil); err == nil {
		t.Fatal("expected error for empty merge")
	}
	if _, err := n.MergeGet(context.Background(), "nope", nil); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("expected ErrUnknownNode, got %v", err)
	}
	missing := cid.Sum([]byte("missing"))
	if _, err := n.MergeGet(context.Background(), "node-00", []cid.CID{missing}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound, got %v", err)
	}
	// Non-block data cannot be merged.
	c, err := n.Put(context.Background(), "node-00", []byte("not a block"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.MergeGet(context.Background(), "node-00", []cid.CID{c}); err == nil {
		t.Fatal("expected decode error merging garbage")
	}
	// Mismatched dimensions cannot be merged.
	b1, _ := model.Quantize(q, []float64{1})
	b2, _ := model.Quantize(q, []float64{1, 2})
	d1, _ := b1.Encode()
	d2, _ := b2.Encode()
	c1, _ := n.Put(context.Background(), "node-00", d1)
	c2, _ := n.Put(context.Background(), "node-00", d2)
	if _, err := n.MergeGet(context.Background(), "node-00", []cid.CID{c1, c2}); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestCorruptDetectableByCID(t *testing.T) {
	n, _ := newTestNetwork(t, 1, 1)
	data := []byte("authentic gradient data")
	c, err := n.Put(context.Background(), "node-00", data)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Corrupt("node-00", c); err != nil {
		t.Fatal(err)
	}
	got, err := n.Get(context.Background(), "node-00", c)
	if testBackend() == BackendFS {
		// The disk backend re-hashes on read: local rot is an
		// infrastructure failure it reports itself.
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("fs backend should surface ErrIntegrity, got %v", err)
		}
		return
	}
	// The memory backend serves corrupt bytes as-is — the paper's §III-A
	// adversary model, where readers verify CIDs themselves.
	if err != nil {
		t.Fatal(err)
	}
	if cid.Verify(got, c) {
		t.Fatal("corrupted data should fail CID verification")
	}
}

func TestUnknownNodeErrors(t *testing.T) {
	n, _ := newTestNetwork(t, 1, 1)
	if _, err := n.Put(context.Background(), "ghost", []byte("x")); !errors.Is(err, ErrUnknownNode) {
		t.Fatal("Put should reject unknown node")
	}
	if _, err := n.Get(context.Background(), "ghost", cid.Sum([]byte("x"))); !errors.Is(err, ErrUnknownNode) {
		t.Fatal("Get should reject unknown node")
	}
	if err := n.Fail("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatal("Fail should reject unknown node")
	}
	if err := n.Recover("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatal("Recover should reject unknown node")
	}
	if err := n.Corrupt("ghost", cid.Sum([]byte("x"))); !errors.Is(err, ErrUnknownNode) {
		t.Fatal("Corrupt should reject unknown node")
	}
	if _, err := n.Node("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatal("Node should reject unknown node")
	}
}

func TestAccounting(t *testing.T) {
	n, _ := newTestNetwork(t, 2, 2)
	data := []byte("0123456789")
	if _, err := n.Put(context.Background(), "node-00", data); err != nil {
		t.Fatal(err)
	}
	// Two replicas of 10 bytes.
	if got := n.TotalStoredBytes(); got != 20 {
		t.Fatalf("TotalStoredBytes = %d, want 20", got)
	}
	nd, _ := n.Node("node-00")
	if nd.StoredBlocks() != 1 || nd.StoredBytes() != 10 {
		t.Fatalf("node accounting wrong: blocks=%d bytes=%d", nd.StoredBlocks(), nd.StoredBytes())
	}
	if nd.id != "node-00" {
		t.Fatal("ID mismatch")
	}
	ids := n.nodeIDs()
	if len(ids) != 2 || ids[0] != "node-00" || ids[1] != "node-01" {
		t.Fatalf("NodeIDs = %v", ids)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	n, _ := newTestNetwork(t, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node")
		}
	}()
	n.AddNode("node-00")
}

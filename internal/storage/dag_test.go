package storage

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"ipls/internal/dag"
)

func TestPutGetDAGRoundTrip(t *testing.T) {
	n, _ := newTestNetwork(t, 3, 2)
	rng := rand.New(rand.NewSource(50))
	data := make([]byte, 50_000)
	rng.Read(data)
	root, err := n.PutDAG(context.Background(), "node-00", data, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if root.Size != 50_000 {
		t.Fatalf("root size %d", root.Size)
	}
	got, err := n.GetDAG(context.Background(), "node-00", root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("DAG round trip mismatch")
	}
}

func TestGetDAGSurvivesNodeFailureWithReplication(t *testing.T) {
	n, _ := newTestNetwork(t, 4, 2)
	n.SetPlacement(PlacementRendezvous)
	rng := rand.New(rand.NewSource(51))
	data := make([]byte, 20_000)
	rng.Read(data)
	root, err := n.PutDAG(context.Background(), "node-00", data, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Fail("node-00"); err != nil {
		t.Fatal(err)
	}
	// Fetching "from" the dead node falls back to content routing across
	// the replicas.
	got, err := n.GetDAG(context.Background(), "node-01", root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("DAG reassembly after failure mismatch")
	}
}

func TestGetDAGDetectsCorruption(t *testing.T) {
	n, _ := newTestNetwork(t, 1, 1)
	rng := rand.New(rand.NewSource(52))
	data := make([]byte, 10_000)
	rng.Read(data)
	root, err := n.PutDAG(context.Background(), "node-00", data, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one stored leaf.
	nd, _ := n.Node("node-00")
	cids := nd.blockCIDs()
	if err := n.Corrupt("node-00", cids[len(cids)/2]); err != nil {
		t.Fatal(err)
	}
	if _, err := n.GetDAG(context.Background(), "node-00", root); err == nil {
		t.Fatal("corrupted DAG block not detected")
	}
}

func TestPutDAGBlockCount(t *testing.T) {
	n, _ := newTestNetwork(t, 1, 1)
	rng := rand.New(rand.NewSource(53))
	data := make([]byte, 10_000)
	rng.Read(data)
	if _, err := n.PutDAG(context.Background(), "node-00", data, 1000); err != nil {
		t.Fatal(err)
	}
	nd, _ := n.Node("node-00")
	if want := dag.Blocks(10_000, 1000); nd.StoredBlocks() != want {
		t.Fatalf("stored %d blocks, want %d", nd.StoredBlocks(), want)
	}
}

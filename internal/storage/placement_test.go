package storage

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

func TestRingPlacementHotspots(t *testing.T) {
	// With ring placement and a fixed primary, every replica lands on the
	// same successor — the §VI problem statement.
	n, _ := newTestNetwork(t, 8, 2)
	rng := rand.New(rand.NewSource(40))
	for i := 0; i < 50; i++ {
		data := make([]byte, 16)
		rng.Read(data)
		if _, err := n.Put(context.Background(), "node-00", data); err != nil {
			t.Fatal(err)
		}
	}
	nd, _ := n.Node("node-01")
	if nd.StoredBlocks() != 50 {
		t.Fatalf("ring successor should hold all 50 replicas, has %d", nd.StoredBlocks())
	}
}

func TestRendezvousPlacementUniform(t *testing.T) {
	// Rendezvous placement spreads replicas of blocks with the same
	// primary across the other nodes near-uniformly.
	n, _ := newTestNetwork(t, 8, 2)
	n.SetPlacement(PlacementRendezvous)
	rng := rand.New(rand.NewSource(41))
	const blocks = 700
	for i := 0; i < blocks; i++ {
		data := make([]byte, 16)
		rng.Read(data)
		if _, err := n.Put(context.Background(), "node-00", data); err != nil {
			t.Fatal(err)
		}
	}
	// 7 candidate nodes, expectation 100 replicas each.
	for i := 1; i < 8; i++ {
		nd, _ := n.Node(fmt.Sprintf("node-%02d", i))
		got := nd.StoredBlocks()
		if got < 60 || got > 140 {
			t.Fatalf("node-%02d holds %d replicas; expected ~100 (uniform)", i, got)
		}
	}
}

func TestRendezvousPlacementDeterministic(t *testing.T) {
	// The same block must map to the same replica set on every network
	// instance — parties can locate replicas without coordination.
	build := func() *Network {
		n, _ := newTestNetwork(t, 5, 3)
		n.SetPlacement(PlacementRendezvous)
		return n
	}
	n1, n2 := build(), build()
	data := []byte("deterministic placement probe")
	c1, err := n1.Put(context.Background(), "node-02", data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n2.Put(context.Background(), "node-02", data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("node-%02d", i)
		a, _ := n1.Node(id)
		b, _ := n2.Node(id)
		hasA, _ := a.store.Has(context.Background(), c1)
		hasB, _ := b.store.Has(context.Background(), c1)
		if hasA != hasB {
			t.Fatalf("placement differs on %s", id)
		}
	}
}

func TestRendezvousSkipsDownNodes(t *testing.T) {
	n, _ := newTestNetwork(t, 4, 3)
	n.SetPlacement(PlacementRendezvous)
	if err := n.Fail("node-02"); err != nil {
		t.Fatal(err)
	}
	c, err := n.Put(context.Background(), "node-00", []byte("replicated"))
	if err != nil {
		t.Fatal(err)
	}
	// Replicas must be on node-01 and node-03 (the only live candidates).
	for _, id := range []string{"node-01", "node-03"} {
		if _, err := n.Get(context.Background(), id, c); err != nil {
			t.Fatalf("replica missing on %s: %v", id, err)
		}
	}
}

func TestReplicaTargetsCount(t *testing.T) {
	n, _ := newTestNetwork(t, 6, 4)
	for _, p := range []Placement{PlacementRing, PlacementRendezvous} {
		n.SetPlacement(p)
		c, err := n.Put(context.Background(), "node-00", []byte(fmt.Sprintf("count-%d", p)))
		if err != nil {
			t.Fatal(err)
		}
		holders := 0
		for i := 0; i < 6; i++ {
			if _, err := n.Get(context.Background(), fmt.Sprintf("node-%02d", i), c); err == nil {
				holders++
			}
		}
		if holders != 4 {
			t.Fatalf("placement %d: %d holders, want 4", p, holders)
		}
	}
}

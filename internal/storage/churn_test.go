package storage

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"ipls/internal/cid"
	"ipls/internal/obs"
	"ipls/internal/scalar"
)

func cidOf(b []byte) cid.CID { return cid.Sum(b) }

func churnNet(t *testing.T, replicas, nodes int) *Network {
	t.Helper()
	n := NewNetwork(scalar.NewField(big.NewInt(7919)), replicas)
	n.SetPlacement(PlacementRendezvous)
	for i := 0; i < nodes; i++ {
		n.AddNode(fmt.Sprintf("ipfs-%02d", i))
	}
	return n
}

func TestDepartLosesBlocksAndWithdrawsRecords(t *testing.T) {
	n := churnNet(t, 2, 4)
	ctx := context.Background()
	c, err := n.Put(ctx, "ipfs-00", []byte("churn-block"))
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if got := n.replicaCount(c); got != 2 {
		t.Fatalf("replicas after put = %d, want 2", got)
	}
	providers := n.providerIDs(c)
	if len(providers) != 2 {
		t.Fatalf("providers = %v, want 2 entries", providers)
	}
	for _, id := range providers {
		if err := n.Depart(id); err != nil {
			t.Fatalf("depart %s: %v", id, err)
		}
	}
	// Both holders gone: the block is lost, records withdrawn.
	if got := n.replicaCount(c); got != 0 {
		t.Fatalf("replicas after departures = %d, want 0", got)
	}
	if got := n.providerIDs(c); len(got) != 0 {
		t.Fatalf("providers after departures = %v, want none", got)
	}
	if _, err := n.Fetch(ctx, c); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fetch lost block: %v, want ErrNotFound", err)
	}
	// Departed nodes reject service with the permanent error...
	if _, err := n.Get(ctx, providers[0], c); !errors.Is(err, ErrNodeDeparted) {
		t.Fatalf("get on departed node: %v, want ErrNodeDeparted", err)
	}
	// ...and cannot Fail, Recover, or Depart again.
	if err := n.Fail(providers[0]); !errors.Is(err, ErrNodeDeparted) {
		t.Fatalf("fail departed: %v", err)
	}
	if err := n.Recover(providers[0]); !errors.Is(err, ErrNodeDeparted) {
		t.Fatalf("recover departed: %v", err)
	}
	if err := n.Depart(providers[0]); !errors.Is(err, ErrNodeDeparted) {
		t.Fatalf("double depart: %v", err)
	}
	// New Puts avoid departed nodes entirely.
	c2, err := n.Put(ctx, liveNodeID(t, n), []byte("second-block"))
	if err != nil {
		t.Fatalf("put after departures: %v", err)
	}
	for _, id := range n.providerIDs(c2) {
		for _, gone := range providers {
			if id == gone {
				t.Fatalf("replica placed on departed node %s", id)
			}
		}
	}
}

// liveNodeID returns a node currently able to serve Puts.
func liveNodeID(t *testing.T, n *Network) string {
	t.Helper()
	for _, id := range n.nodeIDs() {
		nd, err := n.Node(id)
		if err != nil {
			continue
		}
		if !nd.down && !nd.departed {
			return id
		}
	}
	t.Fatal("no live node")
	return ""
}

func TestRepairScanRestoresReplication(t *testing.T) {
	n := churnNet(t, 2, 5)
	reg := obs.NewRegistry()
	n.SetMetrics(reg)
	col := &obs.SpanCollector{}
	n.SetSpans(col)
	ctx := context.Background()

	var blocks [][]byte
	for i := 0; i < 6; i++ {
		blocks = append(blocks, []byte(fmt.Sprintf("payload-%d", i)))
	}
	for _, b := range blocks {
		if _, err := n.Put(ctx, "ipfs-00", b); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	// A clean network repairs nothing.
	rep, err := n.RepairScan(ctx)
	if err != nil {
		t.Fatalf("clean scan: %v", err)
	}
	if rep.Repaired != 0 || rep.UnderReplicated != 0 || rep.Remaining != 0 {
		t.Fatalf("clean scan repaired something: %+v", rep)
	}

	// Depart the primary: every block drops to one live replica.
	if err := n.Depart("ipfs-00"); err != nil {
		t.Fatalf("depart: %v", err)
	}
	if got := len(n.UnderReplicated()); got != len(blocks) {
		t.Fatalf("under-replicated census = %d, want %d", got, len(blocks))
	}
	rep, err = n.RepairScan(ctx)
	if err != nil {
		t.Fatalf("repair scan: %v", err)
	}
	if rep.UnderReplicated != len(blocks) || rep.Repaired != len(blocks) || rep.Remaining != 0 || rep.Lost != 0 {
		t.Fatalf("unexpected repair report %+v", rep)
	}
	if got := len(n.UnderReplicated()); got != 0 {
		t.Fatalf("still %d under-replicated after repair", got)
	}
	for _, b := range blocks {
		if got := n.replicaCount(cidOf(b)); got != 2 {
			t.Fatalf("replicas = %d after repair, want 2", got)
		}
	}
	if got := reg.Counter("repair_blocks_total").Value(); got != int64(len(blocks)) {
		t.Fatalf("repair_blocks_total = %d, want %d", got, len(blocks))
	}
	if got := reg.Gauge("under_replicated_blocks").Value(); got != 0 {
		t.Fatalf("under_replicated_blocks = %v, want 0", got)
	}
	spans := col.Spans()
	var repairSpans int
	for _, sp := range spans {
		if sp.Name == "repair" {
			repairSpans++
			if sp.Attrs["repaired"] != fmt.Sprint(len(blocks)) && sp.Attrs["repaired"] != "0" {
				t.Fatalf("repair span attrs = %v", sp.Attrs)
			}
		}
	}
	if repairSpans != 2 {
		t.Fatalf("want 2 repair spans, got %d", repairSpans)
	}
	// A second scan is idempotent.
	rep, err = n.RepairScan(ctx)
	if err != nil || rep.Repaired != 0 {
		t.Fatalf("second scan: %+v err=%v", rep, err)
	}
}

func TestRepairScanReportsLostBlocks(t *testing.T) {
	n := churnNet(t, 2, 5)
	ctx := context.Background()
	c, err := n.Put(ctx, "ipfs-00", []byte("soon-lost"))
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	for _, id := range n.providerIDs(c) {
		if err := n.Depart(id); err != nil {
			t.Fatalf("depart: %v", err)
		}
	}
	// Re-announce the CID via a live node's record? No — records were
	// withdrawn with the departures, so the scan no longer sees the block
	// at all. Keep one stale record alive through a down (not departed)
	// holder instead.
	c2, err := n.Put(ctx, liveNodeID(t, n), []byte("down-held"))
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	for _, id := range n.providerIDs(c2) {
		if err := n.Fail(id); err != nil {
			t.Fatalf("fail: %v", err)
		}
	}
	rep, err := n.RepairScan(ctx)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if rep.Lost != 1 || rep.Remaining != 1 {
		t.Fatalf("report %+v, want Lost=1 Remaining=1", rep)
	}
	// The holders come back: Recover re-announces, repair restores.
	for _, id := range n.nodeIDs() {
		if nd, _ := n.Node(id); nd != nil && nd.down && !nd.departed {
			if err := n.Recover(id); err != nil {
				t.Fatalf("recover %s: %v", id, err)
			}
		}
	}
	rep, err = n.RepairScan(ctx)
	if err != nil {
		t.Fatalf("scan after recover: %v", err)
	}
	if rep.Lost != 0 || rep.Remaining != 0 {
		t.Fatalf("report after recover %+v", rep)
	}
	if got := n.replicaCount(c2); got < 2 {
		t.Fatalf("replicas after recover+repair = %d, want >= 2", got)
	}
}

func TestRecoverReannouncesBlocks(t *testing.T) {
	n := churnNet(t, 2, 4)
	ctx := context.Background()
	c, err := n.Put(ctx, "ipfs-00", []byte("reannounce-me"))
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	replica := ""
	for _, id := range n.providerIDs(c) {
		if id != "ipfs-00" {
			replica = id
		}
	}
	if err := n.Fail(replica); err != nil {
		t.Fatalf("fail: %v", err)
	}
	// The scan withdraws the down node's record and re-replicates onto a
	// third node.
	if _, err := n.RepairScan(ctx); err != nil {
		t.Fatalf("scan: %v", err)
	}
	for _, id := range n.providerIDs(c) {
		if id == replica {
			t.Fatalf("stale provider record for down node %s survived the scan", replica)
		}
	}
	if got := n.replicaCount(c); got != 2 {
		t.Fatalf("replicas after scan = %d, want 2", got)
	}
	// Recover re-announces: the node's datastore survived, so its record
	// returns and the block is now over-replicated — which repair accepts.
	if err := n.Recover(replica); err != nil {
		t.Fatalf("recover: %v", err)
	}
	found := false
	for _, id := range n.providerIDs(c) {
		if id == replica {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovered node %s missing from providers %v", replica, n.providerIDs(c))
	}
	if got := n.replicaCount(c); got != 3 {
		t.Fatalf("replicas after recover = %d, want 3", got)
	}
	if rep, err := n.RepairScan(ctx); err != nil || rep.Repaired != 0 {
		t.Fatalf("scan after recover: %+v err=%v", rep, err)
	}
}

func TestRejoinStorageNodeStartsEmpty(t *testing.T) {
	n := churnNet(t, 2, 3)
	ctx := context.Background()
	if _, err := n.Put(ctx, "ipfs-01", []byte("pre-departure")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := n.Rejoin("ipfs-01"); err == nil {
		t.Fatal("rejoin of a present node must fail")
	}
	if err := n.Depart("ipfs-01"); err != nil {
		t.Fatalf("depart: %v", err)
	}
	if err := n.Rejoin("ipfs-01"); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	nd, err := n.Node("ipfs-01")
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	if nd.StoredBlocks() != 0 {
		t.Fatalf("rejoined node holds %d blocks, want 0", nd.StoredBlocks())
	}
	// Fully serviceable again.
	c, err := n.Put(ctx, "ipfs-01", []byte("post-rejoin"))
	if err != nil {
		t.Fatalf("put after rejoin: %v", err)
	}
	if got := n.replicaCount(c); got != 2 {
		t.Fatalf("replicas = %d, want 2", got)
	}
}

package storage

import (
	"context"
	"errors"
	"testing"
	"time"

	"ipls/internal/cid"
)

func TestSlowNodeHonorsContextDeadline(t *testing.T) {
	n, _ := newTestNetwork(t, 2, 1)
	if err := n.Slow("node-00", time.Minute); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := n.Put(ctx, "node-00", []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Put on slow node: err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Put waited %v despite a 10ms deadline", elapsed)
	}
	// Clearing the fault restores normal service.
	if err := n.Slow("node-00", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Put(context.Background(), "node-00", []byte("x")); err != nil {
		t.Fatalf("Put after clearing slow fault: %v", err)
	}
}

func TestFlakyNodeIsDeterministicUnderSeed(t *testing.T) {
	outcomes := func() []bool {
		n, _ := newTestNetwork(t, 2, 1)
		n.SetFaultSeed(7)
		if err := n.Flaky("node-00", 0.5); err != nil {
			t.Fatal(err)
		}
		var out []bool
		for i := 0; i < 32; i++ {
			_, err := n.Put(context.Background(), "node-00", []byte{byte(i)})
			if err != nil && !errors.Is(err, ErrNodeDown) {
				t.Fatalf("flaky failure has wrong class: %v", err)
			}
			out = append(out, err == nil)
		}
		return out
	}
	a, b := outcomes(), outcomes()
	failures := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flaky outcomes diverge at op %d despite identical seed", i)
		}
		if !a[i] {
			failures++
		}
	}
	if failures == 0 || failures == len(a) {
		t.Fatalf("flaky p=0.5 produced %d/%d failures; want a mix", failures, len(a))
	}
}

func TestFaultControlsRejectUnknownNode(t *testing.T) {
	n, _ := newTestNetwork(t, 2, 1)
	if err := n.Slow("ghost", time.Second); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Slow(ghost) = %v, want ErrUnknownNode", err)
	}
	if err := n.Flaky("ghost", 0.5); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Flaky(ghost) = %v, want ErrUnknownNode", err)
	}
}

// TestFetchSuffersHolderFaults: a read by content is served by a holder
// admitted like a direct read, so a flaky holder fails it and a slow one
// holds it to the caller's deadline; a healthy replica still serves it.
func TestFetchSuffersHolderFaults(t *testing.T) {
	n, _ := newTestNetwork(t, 3, 1)
	data := []byte("held by one flaky node")
	c, err := n.Put(context.Background(), "node-00", data)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Flaky("node-00", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Fetch(context.Background(), c); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Fetch with the only holder flaking: err = %v, want ErrNotFound", err)
	}
	// A merge elsewhere cannot pull the block from the flaking holder either.
	if _, err := n.MergeGet(context.Background(), "node-01", []cid.CID{c}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("MergeGet of a block only a flaking node holds: err = %v, want ErrNotFound", err)
	}

	if _, err := n.Put(context.Background(), "node-02", data); err != nil {
		t.Fatal(err)
	}
	got, err := n.Fetch(context.Background(), c)
	if err != nil || string(got) != string(data) {
		t.Fatalf("Fetch with a healthy replica on node-02 = %q, %v", got, err)
	}

	if err := n.Flaky("node-00", 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Slow("node-00", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := n.Delete("node-02", c); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := n.Fetch(ctx, c); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Fetch from a slow only holder: err = %v, want deadline exceeded", err)
	}
}

package storage

import (
	"context"
	"errors"
	"testing"
	"time"
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

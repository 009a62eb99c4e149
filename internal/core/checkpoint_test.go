package core

import (
	"context"
	"math/rand"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	sess, net, _ := testStack(t, nil)
	rng := rand.New(rand.NewSource(70))
	params := make([]float64, 1000)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	ref, err := SaveCheckpoint(context.Background(), net, "s0", params)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(context.Background(), net, "s0", ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(params) {
		t.Fatal("length mismatch")
	}
	for i := range got {
		if got[i] != params[i] {
			t.Fatalf("element %d differs", i)
		}
	}
	_ = sess
}

func TestTaskCheckpointRestore(t *testing.T) {
	task, _ := newMLTask(t, false, 1, false)
	// Run two rounds, checkpoint, run one more, load the checkpoint.
	for i := 0; i < 2; i++ {
		if _, _, err := task.RunRound(context.Background(), RoundOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	saved := task.Global()

	// Reuse the trusty in-memory network from a fresh stack for storage.
	_, net, _ := testStack(t, nil)
	ref, err := task.Checkpoint(context.Background(), net, "s0")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := task.RunRound(context.Background(), RoundOptions{}); err != nil {
		t.Fatal(err)
	}
	moved := task.Global()
	changed := false
	for i := range moved {
		if moved[i] != saved[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("round 3 did not move the model — checkpoint test is vacuous")
	}
	restored, err := LoadCheckpoint(context.Background(), net, "s0", ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != len(saved) || maxAbsDiff(restored, saved) != 0 {
		t.Fatal("checkpoint does not hold the round-2 global")
	}
}

package core

import (
	"context"
	"errors"
	"testing"

	"ipls/internal/directory"
	"ipls/internal/identity"
)

// signedStack builds a stack whose directory authenticates every publish.
func signedStack(t *testing.T) (*Session, *identity.Keyring) {
	t.Helper()
	sess, _, dir := testStack(t, func(ts *TaskSpec) { ts.Verifiable = true })
	cfg := sess.cfg
	ring, reg := identity.DeterministicSetup(cfg.TaskID, cfg.ParticipantIDs())
	dir.SetRegistry(reg)
	sess.SetKeyring(ring)
	return sess, ring
}

func TestSignedIterationSucceeds(t *testing.T) {
	sess, _ := signedStack(t)
	deltas, wantAvg := randomDeltas(sess.cfg.Trainers, 24, 100)
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("incomplete: %v", res.Incomplete)
	}
	if diff := maxAbsDiff(res.AvgDelta, wantAvg); diff > 1e-6 {
		t.Fatalf("signed-run average off by %v", diff)
	}
}

func TestUnsignedPublishRejected(t *testing.T) {
	sess, _ := signedStack(t)
	// A session without keys cannot publish to an authenticated
	// directory.
	sess.SetKeyring(nil)
	err := sess.TrainerUpload(context.Background(), "t0", 0, make([]float64, 24))
	if !errors.Is(err, directory.ErrBadSignature) {
		t.Fatalf("expected ErrBadSignature, got %v", err)
	}
}

func TestImpersonationRejected(t *testing.T) {
	sess, _ := signedStack(t)
	// Mallory holds only her own (unregistered) key but publishes as t0.
	mallory := identity.NewKeyring()
	mallory.Add(identity.Deterministic("mallory-keys", "t0")) // wrong key for t0
	sess.SetKeyring(mallory)
	err := sess.TrainerUpload(context.Background(), "t0", 0, make([]float64, 24))
	if !errors.Is(err, directory.ErrBadSignature) {
		t.Fatalf("impersonation accepted: %v", err)
	}
}

func TestUnregisteredParticipantRejected(t *testing.T) {
	sess, ring := signedStack(t)
	intruder := identity.Deterministic(sess.cfg.TaskID, "intruder")
	ring.Add(intruder)
	err := sess.TrainerUpload(context.Background(), "intruder", 0, make([]float64, 24))
	if !errors.Is(err, directory.ErrBadSignature) {
		t.Fatalf("unregistered participant accepted: %v", err)
	}
}

func TestTamperedRecordSignatureFails(t *testing.T) {
	// Direct unit check: mutating any signed field invalidates the
	// signature.
	kp := identity.Deterministic("task", "t0")
	rec := directory.Record{
		Addr: directory.Addr{Uploader: "t0", Partition: 1, Iter: 2, Type: directory.TypeGradient},
		CID:  "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff",
		Node: "s0",
	}
	rec.Signature = kp.Sign(rec.SigningBytes())
	if !identity.Verify(kp.Public(), rec.SigningBytes(), rec.Signature) {
		t.Fatal("honest signature rejected")
	}
	mutations := []func(*directory.Record){
		func(r *directory.Record) { r.Addr.Iter = 3 },
		func(r *directory.Record) { r.Addr.Partition = 0 },
		func(r *directory.Record) { r.Addr.Uploader = "t1" },
		func(r *directory.Record) { r.Addr.Type = directory.TypeUpdate },
		func(r *directory.Record) { r.CID = "ff112233445566778899aabbccddeeff00112233445566778899aabbccddeeff" },
		func(r *directory.Record) { r.Commitment = []byte{1} },
	}
	for i, mut := range mutations {
		m := rec
		mut(&m)
		if identity.Verify(kp.Public(), m.SigningBytes(), m.Signature) {
			t.Fatalf("mutation %d did not invalidate the signature", i)
		}
	}
	// Moving the block to another node does NOT invalidate it (fallback
	// uploads are legitimate).
	moved := rec
	moved.Node = "s9"
	if !identity.Verify(kp.Public(), moved.SigningBytes(), moved.Signature) {
		t.Fatal("node change should not invalidate the signature")
	}
}

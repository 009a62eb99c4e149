package identity

import (
	"errors"
	"testing"
)

func TestSignVerify(t *testing.T) {
	kp := Deterministic("task", "alice")
	msg := []byte("gradient record bytes")
	sig := kp.Sign(msg)
	if !Verify(kp.Public(), msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(kp.Public(), []byte("other message"), sig) {
		t.Fatal("signature valid for a different message")
	}
	other := Deterministic("task", "bob")
	if Verify(other.Public(), msg, sig) {
		t.Fatal("signature valid under a different key")
	}
	if Verify(nil, msg, sig) {
		t.Fatal("nil key accepted")
	}
	if Verify(kp.Public()[:5], msg, sig) {
		t.Fatal("truncated key accepted")
	}
}

func TestDeterministicKeys(t *testing.T) {
	a := Deterministic("task-1", "t0")
	b := Deterministic("task-1", "t0")
	if string(a.Public()) != string(b.Public()) {
		t.Fatal("deterministic derivation is not deterministic")
	}
	c := Deterministic("task-1", "t1")
	d := Deterministic("task-2", "t0")
	if string(a.Public()) == string(c.Public()) || string(a.Public()) == string(d.Public()) {
		t.Fatal("distinct identities derived the same key")
	}
	msg := []byte("x")
	if !Verify(b.Public(), msg, a.Sign(msg)) {
		t.Fatal("cross-instance signature failed")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	kp := Deterministic("task", "t0")
	reg.Register("t0", kp.Public())
	if reg.Len() != 1 {
		t.Fatalf("Len = %d", reg.Len())
	}
	pub, err := reg.Lookup("t0")
	if err != nil {
		t.Fatal(err)
	}
	if string(pub) != string(kp.Public()) {
		t.Fatal("registry returned a different key")
	}
	if _, err := reg.Lookup("ghost"); !errors.Is(err, ErrUnknownParticipant) {
		t.Fatalf("expected ErrUnknownParticipant, got %v", err)
	}
}

func TestKeyringAndSetup(t *testing.T) {
	ring, reg := DeterministicSetup("task", []string{"t0", "t1", "agg-0"})
	if reg.Len() != 3 {
		t.Fatalf("registry has %d keys", reg.Len())
	}
	if ring.Signer("t1") == nil {
		t.Fatal("keyring missing t1")
	}
	if ring.Signer("ghost") != nil {
		t.Fatal("keyring invented a key")
	}
	// Ring and registry agree.
	msg := []byte("m")
	sig := ring.Signer("agg-0").Sign(msg)
	pub, err := reg.Lookup("agg-0")
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(pub, msg, sig) {
		t.Fatal("setup keyring/registry mismatch")
	}
}

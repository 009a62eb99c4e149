// Package identity provides participant identities for the protocol:
// Ed25519 keypairs, a public-key registry maintained by the bootstrapper,
// and deterministic key derivation for tests and demos.
//
// The paper's directory service implicitly trusts the uploader ID attached
// to each record. Without authentication, a malicious participant could
// impersonate a trainer (publishing a bogus "gradient from t3" and thereby
// corrupting the partition accumulator so that every honest update fails
// verification — a denial of service the commitments alone cannot
// prevent). Signed records close that gap: the registry is distributed by
// the bootstrapper at task setup, exactly like the rest of the task
// configuration.
package identity

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
)

// KeyPair is a participant's signing identity.
type KeyPair struct {
	ID      string
	public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// Deterministic derives a keypair from (label, id) — for tests, demos and
// the iplsd deployment where all parties derive the task wiring from
// shared flags. Keys derived from public labels are not secret: a
// deployment facing real adversaries needs random keys whose public halves
// are distributed out of band.
func Deterministic(label, id string) *KeyPair {
	seed := sha256.Sum256([]byte("ipls/identity/" + label + "/" + id))
	priv := ed25519.NewKeyFromSeed(seed[:])
	return &KeyPair{
		ID:      id,
		public:  priv.Public().(ed25519.PublicKey),
		private: priv,
	}
}

// Public returns the public key.
func (k *KeyPair) Public() ed25519.PublicKey { return k.public }

// Sign signs a message.
func (k *KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.private, msg)
}

// Verify checks a signature.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, msg, sig)
}

// Registry maps participant IDs to their public keys; the bootstrapper
// builds it at task setup and the directory consults it on every publish.
type Registry struct {
	mu   sync.RWMutex
	keys map[string]ed25519.PublicKey
}

// ErrUnknownParticipant indicates a record from an unregistered ID.
var ErrUnknownParticipant = errors.New("identity: unknown participant")

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[string]ed25519.PublicKey)}
}

// Register records a participant's public key (a copy).
func (r *Registry) Register(id string, pub ed25519.PublicKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[id] = append(ed25519.PublicKey(nil), pub...)
}

// Lookup returns a participant's public key.
func (r *Registry) Lookup(id string) (ed25519.PublicKey, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pub, ok := r.keys[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownParticipant, id)
	}
	return pub, nil
}

// Len returns the number of registered participants.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.keys)
}

// Keyring holds the private keys a process controls (one per role it
// plays; a test session may hold all of them).
type Keyring struct {
	mu   sync.RWMutex
	keys map[string]*KeyPair
}

// NewKeyring creates an empty keyring.
func NewKeyring() *Keyring {
	return &Keyring{keys: make(map[string]*KeyPair)}
}

// Add stores a keypair.
func (k *Keyring) Add(kp *KeyPair) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.keys[kp.ID] = kp
}

// Signer returns the keypair for an ID, or nil.
func (k *Keyring) Signer(id string) *KeyPair {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.keys[id]
}

// DeterministicSetup derives a keyring holding every listed participant's
// key plus the matching registry — the test/demo path.
func DeterministicSetup(label string, ids []string) (*Keyring, *Registry) {
	ring := NewKeyring()
	reg := NewRegistry()
	for _, id := range ids {
		kp := Deterministic(label, id)
		ring.Add(kp)
		reg.Register(id, kp.Public())
	}
	return ring, reg
}

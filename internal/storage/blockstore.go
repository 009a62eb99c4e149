package storage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"ipls/internal/cid"
)

// BlockStore is the node-local storage backend: one node's content-addressed
// datastore, behind which the network's replication, placement and repair
// machinery is backend-agnostic. It is the seam where the in-memory map the
// package grew up with and the durable on-disk CAS store meet — the role the
// datastore abstraction plays under an IPFS node.
//
// Methods are context-first like the storage.Client redesign: cancellation
// and deadlines flow from the caller into the backend (the disk backend
// checks them before touching the filesystem). Implementations must be safe
// for concurrent use.
type BlockStore interface {
	// Put stores data and returns its content ID. Storing bytes that are
	// already present is a cheap no-op (content addressing deduplicates).
	// Every backend's Put is cid.Sum followed by PutKnown.
	Put(ctx context.Context, data []byte) (cid.CID, error)
	// PutKnown stores data under c, which the caller has computed as
	// cid.Sum(data): the network hashes a block once and hands the CID to
	// the primary and every replica.
	PutKnown(ctx context.Context, c cid.CID, data []byte) error
	// Get returns the block's bytes, which may be the stored slice itself
	// and so are read-only. A missing block is ErrNotFound; backends that
	// re-verify on read report tampered bytes as ErrIntegrity.
	Get(ctx context.Context, c cid.CID) ([]byte, error)
	// Has reports whether the store holds the block, without reading it.
	Has(ctx context.Context, c cid.CID) (bool, error)
	// Delete removes a block. Deleting an absent block is a no-op,
	// mirroring IPFS unpinning semantics.
	Delete(ctx context.Context, c cid.CID) error
	// Keys lists every stored CID in sorted order.
	Keys(ctx context.Context) ([]cid.CID, error)
	// Close releases backend resources. The store must not be used after.
	Close() error
}

// Backend errors.
var (
	// ErrIntegrity indicates a stored block no longer hashes to its CID:
	// the backend's bytes rotted or were tampered with at rest. Reported
	// by backends that re-verify on read (the disk store).
	ErrIntegrity = errors.New("storage: block failed integrity re-hash")
	// ErrBackend indicates a node's block-store backend failed
	// infrastructurally (unwritable directory, I/O error, corrupt block on
	// disk). Health wraps backend failures in it so readiness probes can
	// distinguish "disk is broken" from "not enough replicas live".
	ErrBackend = errors.New("storage: block store backend failure")
	// ErrStoreClosed indicates an operation on a closed block store.
	ErrStoreClosed = errors.New("storage: block store is closed")
)

// Sizer is the optional BlockStore capability of reporting its stored byte
// total cheaply (without reading every block).
type Sizer interface {
	StoredBytes() int64
}

// Corrupter is the optional BlockStore capability of flipping a byte of a
// stored block in place — the test hook behind the paper's "we do not assume
// correctness of retrieved data" adversary (§III-A).
type Corrupter interface {
	Corrupt(ctx context.Context, c cid.CID) error
}

// MemStore is the in-memory BlockStore: the mutex-guarded map the network's
// nodes always used, extracted behind the backend interface. It does not
// re-verify on read — corrupted bytes are served as-is, preserving the
// adversarial model in which readers verify CIDs themselves.
type MemStore struct {
	mu     sync.Mutex
	blocks map[cid.CID][]byte
	bytes  int64
	closed bool
}

var (
	_ BlockStore = (*MemStore)(nil)
	_ Sizer      = (*MemStore)(nil)
	_ Corrupter  = (*MemStore)(nil)
)

// NewMemStore creates an empty in-memory block store.
func NewMemStore() *MemStore {
	return &MemStore{blocks: make(map[cid.CID][]byte)}
}

// Put stores data under its CID (see PutKnown).
func (m *MemStore) Put(ctx context.Context, data []byte) (cid.CID, error) {
	return putSum(ctx, m, data)
}

// PutKnown stores data under c. The slice is retained, and Get returns it:
// stored bytes are write-once, and neither the caller nor a reader may
// write to them.
func (m *MemStore) PutKnown(ctx context.Context, c cid.CID, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	if _, ok := m.blocks[c]; !ok {
		m.blocks[c] = data
		m.bytes += int64(len(data))
	}
	return nil
}

// Get returns the stored slice itself; it is read-only.
func (m *MemStore) Get(ctx context.Context, c cid.CID) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrStoreClosed
	}
	data, ok := m.blocks[c]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, c.Short())
	}
	return data, nil
}

// Has reports whether the block is present.
func (m *MemStore) Has(ctx context.Context, c cid.CID) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, ErrStoreClosed
	}
	_, ok := m.blocks[c]
	return ok, nil
}

// Delete removes a block (no-op when absent).
func (m *MemStore) Delete(ctx context.Context, c cid.CID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	if data, ok := m.blocks[c]; ok {
		m.bytes -= int64(len(data))
		delete(m.blocks, c)
	}
	return nil
}

// Keys lists stored CIDs in sorted order.
func (m *MemStore) Keys(ctx context.Context) ([]cid.CID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrStoreClosed
	}
	out := make([]cid.CID, 0, len(m.blocks))
	for c := range m.blocks {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Len returns how many blocks the store holds.
func (m *MemStore) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.blocks)
}

// StoredBytes returns the total payload bytes held.
func (m *MemStore) StoredBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// Corrupt flips a byte of the stored block — the §III-A adversary hook.
// The mutation is copy-on-write, so replicas sharing the slice are not
// affected.
func (m *MemStore) Corrupt(ctx context.Context, c cid.CID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	data, ok := m.blocks[c]
	if !ok {
		return ErrNotFound
	}
	mutated := append([]byte(nil), data...)
	mutated[len(mutated)/2] ^= 0xff
	m.blocks[c] = mutated
	return nil
}

// Close marks the store closed; subsequent operations fail.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.blocks = nil
	m.bytes = 0
	return nil
}

// putSum is every backend's Put: hash the block, then store it under that
// CID.
func putSum(ctx context.Context, s BlockStore, data []byte) (cid.CID, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	c := cid.Sum(data)
	if err := s.PutKnown(ctx, c, data); err != nil {
		return "", err
	}
	return c, nil
}

// cidLocks serializes the operations on one CID while operations on other
// CIDs proceed: a fixed set of mutexes, striped by a hash of the CID.
type cidLocks [64]sync.Mutex

// of returns the mutex guarding c.
func (l *cidLocks) of(c cid.CID) *sync.Mutex {
	h := uint32(2166136261) // FNV-1a over the leading bytes
	for i := 0; i < len(c) && i < 8; i++ {
		h = (h ^ uint32(c[i])) * 16777619
	}
	return &l[h%uint32(len(l))]
}

// storeBytes returns a store's byte total: the Sizer fast path when the
// backend has one, a Keys+Get walk otherwise.
func storeBytes(bs BlockStore) int64 {
	if s, ok := bs.(Sizer); ok {
		return s.StoredBytes()
	}
	keys, err := bs.Keys(context.Background())
	if err != nil {
		return 0
	}
	var total int64
	for _, c := range keys {
		if data, err := bs.Get(context.Background(), c); err == nil {
			total += int64(len(data))
		}
	}
	return total
}

package storage

import (
	"container/list"
	"context"
	"sync"

	"ipls/internal/cid"
	"ipls/internal/obs"
)

// CachedStore layers a fixed-capacity LRU block cache over a backing
// BlockStore. It exists for the disk backend: a Get that hits the cache
// skips the read-and-rehash round trip entirely. Writes populate the cache
// (write-through), deletes and corruption hooks invalidate it, so the cache
// can never serve bytes the backing store has dropped or that tests have
// deliberately rotted on disk.
//
// Hit/miss counters are nil-safe obs instruments; SetMetrics wires them to
// storage_cache_hits_total / storage_cache_misses_total.
type CachedStore struct {
	backing BlockStore
	cap     int

	mu      sync.Mutex
	entries map[cid.CID]*list.Element
	lru     *list.List // front = most recently used

	hits   *obs.Counter
	misses *obs.Counter
}

type cacheEntry struct {
	c    cid.CID
	data []byte
}

var _ BlockStore = (*CachedStore)(nil)

// NewCachedStore wraps backing with an LRU cache holding up to capBlocks
// blocks. A capacity of zero or less disables caching (every Get is a
// miss against the backing store).
func NewCachedStore(backing BlockStore, capBlocks int) *CachedStore {
	return &CachedStore{
		backing: backing,
		cap:     capBlocks,
		entries: make(map[cid.CID]*list.Element),
		lru:     list.New(),
	}
}

// SetMetrics attaches hit/miss counters. Nil counters discard.
func (cs *CachedStore) SetMetrics(hits, misses *obs.Counter) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.hits = hits
	cs.misses = misses
}

func (cs *CachedStore) admit(c cid.CID, data []byte) {
	if cs.cap <= 0 {
		return
	}
	if el, ok := cs.entries[c]; ok {
		cs.lru.MoveToFront(el)
		return
	}
	cs.entries[c] = cs.lru.PushFront(&cacheEntry{c: c, data: data})
	for cs.lru.Len() > cs.cap {
		oldest := cs.lru.Back()
		cs.lru.Remove(oldest)
		delete(cs.entries, oldest.Value.(*cacheEntry).c)
	}
}

func (cs *CachedStore) evict(c cid.CID) {
	if el, ok := cs.entries[c]; ok {
		cs.lru.Remove(el)
		delete(cs.entries, c)
	}
}

// Put writes through to the backing store and admits the block.
func (cs *CachedStore) Put(ctx context.Context, data []byte) (cid.CID, error) {
	return putSum(ctx, cs, data)
}

// PutKnown writes through to the backing store and admits the block.
func (cs *CachedStore) PutKnown(ctx context.Context, c cid.CID, data []byte) error {
	if err := cs.backing.PutKnown(ctx, c, data); err != nil {
		return err
	}
	cs.mu.Lock()
	cs.admit(c, data)
	cs.mu.Unlock()
	return nil
}

// Get serves from the cache when possible, falling back to the backing
// store and admitting what it returns. Cached bytes were verified when
// first read (or written by us), so cache hits skip re-hashing; a hit
// returns the cached slice itself, which is read-only.
func (cs *CachedStore) Get(ctx context.Context, c cid.CID) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cs.mu.Lock()
	if el, ok := cs.entries[c]; ok {
		cs.lru.MoveToFront(el)
		data := el.Value.(*cacheEntry).data
		hits := cs.hits
		cs.mu.Unlock()
		hits.Inc()
		return data, nil
	}
	misses := cs.misses
	cs.mu.Unlock()
	misses.Inc()
	data, err := cs.backing.Get(ctx, c)
	if err != nil {
		return nil, err
	}
	cs.mu.Lock()
	cs.admit(c, data)
	cs.mu.Unlock()
	return data, nil
}

// Has defers to the backing store (presence, not cachedness).
func (cs *CachedStore) Has(ctx context.Context, c cid.CID) (bool, error) {
	return cs.backing.Has(ctx, c)
}

// Delete removes from the backing store and invalidates the cache entry.
func (cs *CachedStore) Delete(ctx context.Context, c cid.CID) error {
	if err := cs.backing.Delete(ctx, c); err != nil {
		return err
	}
	cs.mu.Lock()
	cs.evict(c)
	cs.mu.Unlock()
	return nil
}

// Keys defers to the backing store.
func (cs *CachedStore) Keys(ctx context.Context) ([]cid.CID, error) {
	return cs.backing.Keys(ctx)
}

// StoredBytes reports the backing store's total (the cache holds no
// payload the backing store lacks).
func (cs *CachedStore) StoredBytes() int64 { return cs.backing.StoredBytes() }

// Corrupt forwards to the backing store's corruption hook and evicts any
// cached copy — otherwise the cache would keep serving the clean bytes and
// mask the on-disk rot the test injected.
func (cs *CachedStore) Corrupt(ctx context.Context, c cid.CID) error {
	if err := cs.backing.Corrupt(ctx, c); err != nil {
		return err
	}
	cs.mu.Lock()
	cs.evict(c)
	cs.mu.Unlock()
	return nil
}

// Close drops the cache and closes the backing store.
func (cs *CachedStore) Close() error {
	cs.mu.Lock()
	cs.entries = make(map[cid.CID]*list.Element)
	cs.lru.Init()
	cs.mu.Unlock()
	return cs.backing.Close()
}

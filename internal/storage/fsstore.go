package storage

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ipls/internal/cid"
)

// FSStore is the durable content-addressed BlockStore: a flat-fanout CAS
// directory keyed by CID, the role the IPFS flatfs datastore plays under a
// real IPLS peer. Layout:
//
//	root/
//	  tmp/              staging area for atomic writes
//	  <cid[:2]>/<cid>   block payload, one file per CID
//
// Writes stage into tmp/ and rename into place, so a crash mid-Put leaves
// either the whole block or nothing — never a torn file under a valid CID
// name. Reads re-hash the payload and report mismatches as ErrIntegrity:
// unlike the memory store (whose corruption model is the paper's §III-A
// adversary, detected by callers), bytes rotting on local disk are an
// infrastructure failure the backend itself must surface.
//
// An in-memory index (CID → size) is rebuilt by scanning the fanout dirs at
// Open, so Has/Keys never touch the disk afterwards. mu guards only the
// index: file I/O runs outside it, under the block's stripe of locks, so
// writes of different blocks proceed in parallel while a Put and a Delete of
// the same block stay ordered.
type FSStore struct {
	root  string
	locks cidLocks

	mu     sync.Mutex
	index  map[cid.CID]int64
	bytes  int64
	closed bool
}

var _ BlockStore = (*FSStore)(nil)

// OpenFSStore opens (creating if needed) a disk-backed block store rooted at
// dir, rebuilding its index from the blocks already on disk — this is the
// restart path: a store reopened on the same directory serves every block
// the previous process stored.
func OpenFSStore(dir string) (*FSStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("%w: empty store directory", ErrBackend)
	}
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, fmt.Errorf("%w: create %s: %v", ErrBackend, dir, err)
	}
	// Clear staging leftovers from a crashed writer; they were never
	// renamed into place, so nothing references them.
	if stale, err := os.ReadDir(filepath.Join(dir, "tmp")); err == nil {
		for _, e := range stale {
			os.Remove(filepath.Join(dir, "tmp", e.Name()))
		}
	}
	s := &FSStore{root: dir, index: make(map[cid.CID]int64)}
	fanouts, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: scan %s: %v", ErrBackend, dir, err)
	}
	for _, fan := range fanouts {
		if !fan.IsDir() || fan.Name() == "tmp" {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(dir, fan.Name()))
		if err != nil {
			return nil, fmt.Errorf("%w: scan %s: %v", ErrBackend, fan.Name(), err)
		}
		for _, e := range entries {
			c, perr := cid.Parse(e.Name())
			if perr != nil {
				continue // not a block file; ignore
			}
			info, ierr := e.Info()
			if ierr != nil {
				continue
			}
			s.index[c] = info.Size()
			s.bytes += info.Size()
		}
	}
	return s, nil
}

func (s *FSStore) path(c cid.CID) string {
	h := string(c)
	return filepath.Join(s.root, h[:2], h)
}

// Put writes data to the CAS under its CID (see PutKnown).
func (s *FSStore) Put(ctx context.Context, data []byte) (cid.CID, error) {
	return putSum(ctx, s, data)
}

// PutKnown writes data under c atomically: stage into tmp/, fsync-free
// rename into the fanout slot, then index. Re-putting an indexed block is
// an index hit and touches no files.
func (s *FSStore) PutKnown(ctx context.Context, c cid.CID, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	lk := s.locks.of(c)
	lk.Lock()
	defer lk.Unlock()
	if _, have, err := s.lookup(c); err != nil || have {
		return err
	}
	if err := s.writeFile(c, data); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed // the file stays; reopening indexes it
	}
	s.index[c] = int64(len(data))
	s.bytes += int64(len(data))
	return nil
}

// writeFile stages data and renames it into c's fanout slot.
func (s *FSStore) writeFile(c cid.CID, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Join(s.root, "tmp"), "put-*")
	if err != nil {
		return fmt.Errorf("%w: stage block: %v", ErrBackend, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("%w: write block: %v", ErrBackend, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("%w: close block: %v", ErrBackend, err)
	}
	dst := s.path(c)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("%w: fanout dir: %v", ErrBackend, err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("%w: commit block: %v", ErrBackend, err)
	}
	return nil
}

// Get reads the block and re-hashes it before returning: a payload that no
// longer matches its CID is ErrIntegrity, not silently served.
func (s *FSStore) Get(ctx context.Context, c cid.CID) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, ok, err := s.lookup(c); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, c.Short())
	}
	data, err := os.ReadFile(s.path(c))
	if err != nil {
		if os.IsNotExist(err) {
			// Index said present but the file vanished — treat as
			// missing and drop the stale index entry.
			s.dropIndex(c)
			return nil, fmt.Errorf("%w: %s", ErrNotFound, c.Short())
		}
		return nil, fmt.Errorf("%w: read %s: %v", ErrBackend, c.Short(), err)
	}
	if !cid.Verify(data, c) {
		return nil, fmt.Errorf("%w: %s", ErrIntegrity, c.Short())
	}
	return data, nil
}

// dropIndex forgets a block whose file vanished. It re-checks under the
// block's lock, since a Put may have written the file again meanwhile.
func (s *FSStore) dropIndex(c cid.CID) {
	lk := s.locks.of(c)
	lk.Lock()
	defer lk.Unlock()
	if _, err := os.Stat(s.path(c)); !os.IsNotExist(err) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sz, ok := s.index[c]; ok {
		s.bytes -= sz
		delete(s.index, c)
	}
}

// Has answers from the in-memory index without touching disk.
func (s *FSStore) Has(ctx context.Context, c cid.CID) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	_, ok, err := s.lookup(c)
	return ok, err
}

// lookup reads c's index entry.
func (s *FSStore) lookup(c cid.CID) (size int64, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, false, ErrStoreClosed
	}
	size, ok = s.index[c]
	return size, ok, nil
}

// Delete unlinks the block file (no-op when absent).
func (s *FSStore) Delete(ctx context.Context, c cid.CID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	lk := s.locks.of(c)
	lk.Lock()
	defer lk.Unlock()
	sz, ok, err := s.lookup(c)
	if err != nil || !ok {
		return err
	}
	if err := os.Remove(s.path(c)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("%w: delete %s: %v", ErrBackend, c.Short(), err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.bytes -= sz
		delete(s.index, c)
	}
	return nil
}

// Keys lists stored CIDs in sorted order, from the index.
func (s *FSStore) Keys(ctx context.Context) ([]cid.CID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStoreClosed
	}
	out := make([]cid.CID, 0, len(s.index))
	for c := range s.index {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// StoredBytes returns the total payload bytes on disk per the index.
func (s *FSStore) StoredBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Corrupt flips a byte of the on-disk block in place — the bit-rot test
// hook. A subsequent Get surfaces ErrIntegrity.
func (s *FSStore) Corrupt(ctx context.Context, c cid.CID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	if _, ok := s.index[c]; !ok {
		return ErrNotFound
	}
	p := s.path(c)
	data, err := os.ReadFile(p)
	if err != nil {
		return fmt.Errorf("%w: read %s: %v", ErrBackend, c.Short(), err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		return fmt.Errorf("%w: rewrite %s: %v", ErrBackend, c.Short(), err)
	}
	return nil
}

// Close marks the store closed. The on-disk blocks remain; reopening the
// same directory recovers them.
func (s *FSStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.index = nil
	s.bytes = 0
	return nil
}

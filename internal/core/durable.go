package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"ipls/internal/cid"
	"ipls/internal/dag"
	"ipls/internal/directory"
	"ipls/internal/scalar"
	"ipls/internal/storage"
)

// Durable deployment: the restart-rejoin bootstrap path. NewLocalStack
// wires an in-memory stack that dies with the process; OpenDurableStack
// wires the same stack over the disk-backed BlockStore and a persisted
// directory snapshot, so a restarted node comes back with its blocks AND
// its records — it serves every pre-crash CID without re-replication,
// which is restart durability beyond the checkpoint DAG.

// DurableOptions configures OpenDurableStack.
type DurableOptions struct {
	// StoreDir is the root directory for durable state. Blocks live under
	// StoreDir/blocks/<node id>, the directory snapshot at
	// StoreDir/directory.json.
	StoreDir string
	// CacheBlocks is the per-node LRU block-cache capacity (0 disables).
	CacheBlocks int
	// Replicas is the storage replication factor (minimum 1).
	Replicas int
}

// SnapshotPath returns where the stack persists its directory snapshot.
func (o DurableOptions) SnapshotPath() string {
	return filepath.Join(o.StoreDir, "directory.json")
}

// DurableStack is a local deployment whose storage and directory state
// survive process restarts.
type DurableStack struct {
	Session *Session
	Network *storage.Network
	Dir     *directory.Service

	opts     DurableOptions
	restored bool
}

// Restored reports whether the stack came up from persisted state (a prior
// run's snapshot and blocks) rather than empty.
func (d *DurableStack) Restored() bool { return d.restored }

// OpenDurableStack wires a disk-backed deployment rooted at
// opts.StoreDir: a storage network on the fs BlockStore backend (each
// node reopening — and re-announcing — whatever blocks it already holds)
// and a directory service restored from the persisted snapshot when one
// exists. Close persists the snapshot back and closes the stores.
func OpenDurableStack(cfg *Config, opts DurableOptions) (*DurableStack, error) {
	if opts.StoreDir == "" {
		return nil, errors.New("core: durable stack needs a store directory")
	}
	field := scalar.NewField(cfg.Curve.N)
	net := storage.NewNetworkWithStore(field, opts.Replicas, storage.StoreConfig{
		Backend:     storage.BackendFS,
		Dir:         filepath.Join(opts.StoreDir, "blocks"),
		CacheBlocks: opts.CacheBlocks,
	})
	for _, id := range cfg.StorageNodes {
		net.AddNode(id)
	}
	params, err := cfg.PedersenParams()
	if err != nil {
		net.Close()
		return nil, err
	}
	dir, err := directory.RestoreFile(opts.SnapshotPath(), params, net)
	if err != nil {
		net.Close()
		return nil, fmt.Errorf("core: restore directory: %w", err)
	}
	restored := dir != nil
	if dir == nil {
		dir = directory.New(params, net)
	}
	// Assignments are config, not state: (re)apply so a config change
	// between runs takes effect and a fresh boot starts assigned.
	cfg.ApplyAssignments(dir)
	sess, err := NewSession(cfg, net, dir)
	if err != nil {
		net.Close()
		return nil, err
	}
	return &DurableStack{
		Session:  sess,
		Network:  net,
		Dir:      dir,
		opts:     opts,
		restored: restored,
	}, nil
}

// Snapshot persists the directory snapshot without closing the stack —
// call it at round boundaries so a crash loses at most the current round's
// records (blocks are already durable at Put time).
func (d *DurableStack) Snapshot() error {
	return d.Dir.SaveSnapshotFile(d.opts.SnapshotPath())
}

// Close persists the directory snapshot and closes every node's block
// store. The stack must not be used afterwards.
func (d *DurableStack) Close() error {
	snapErr := d.Snapshot()
	closeErr := d.Network.Close()
	if snapErr != nil {
		return snapErr
	}
	return closeErr
}

// GCOptions pins blocks that must survive a collection sweep.
type GCOptions struct {
	// KeepIters lists iterations whose directory-recorded blocks
	// (gradients, partials, finals) are still live — typically the
	// current iteration and, for catch-up, the previous one.
	KeepIters []int
	// KeepRoots pins checkpoint DAGs: every block reachable from these
	// roots is kept, so a rejoining trainer can always bootstrap.
	KeepRoots []dag.Ref
}

// GCSuperseded garbage-collects blocks from superseded iterations: it
// builds the keep set from the directory's records for GCOptions.KeepIters,
// the finals of those iterations, and the full block sets of the pinned
// checkpoint DAG roots — then sweeps everything else from every node.
// Where CleanupIteration deletes one finished iteration's blocks by
// record, GCSuperseded inverts the question ("what must stay?") so blocks
// that lost their records — merge-fetch caches, departed uploads — are
// reclaimed too, which is what keeps a durable disk store's footprint
// proportional to the working set rather than to history.
func (s *Session) GCSuperseded(ctx context.Context, opts GCOptions) (storage.GCReport, error) {
	// A probe, not the contract: transport.Client has no GC.
	col, ok := s.store.(interface {
		GC(ctx context.Context, keep map[cid.CID]bool) (storage.GCReport, error)
	})
	if !ok {
		return storage.GCReport{}, errors.New("core: storage does not support garbage collection")
	}
	keep, err := s.gcKeepSet(ctx, opts)
	if err != nil {
		return storage.GCReport{}, err
	}
	return col.GC(ctx, keep)
}

func (s *Session) gcKeepSet(ctx context.Context, opts GCOptions) (map[cid.CID]bool, error) {
	keep := make(map[cid.CID]bool)
	for _, iter := range opts.KeepIters {
		for _, rec := range s.dir.RecordsForIter(iter) {
			keep[rec.CID] = true
		}
	}
	// The finals trail is always pinned, beyond KeepIters: the published
	// global updates are how a restarted trainer replays the model
	// (Task.Resume), at a few KB per round. The probe walks consecutive
	// iterations and stops at the first without a complete set of finals —
	// the same rule Resume uses, so everything replayable stays fetchable.
	for iter := 0; ; iter++ {
		complete := true
		for p := 0; p < s.cfg.Spec.Partitions; p++ {
			rec, err := s.dir.Update(ctx, iter, p)
			if err != nil {
				complete = false
				continue
			}
			keep[rec.CID] = true
		}
		if !complete {
			break
		}
	}
	// Expand checkpoint DAGs through a CID-recording fetcher: Assemble
	// walks exactly the blocks the DAG references, so whatever it asks
	// for is what must survive.
	for _, root := range opts.KeepRoots {
		_, err := dag.Assemble(root, func(c cid.CID) ([]byte, error) {
			keep[c] = true
			return s.store.Fetch(ctx, c)
		})
		if err != nil {
			return nil, fmt.Errorf("core: pin checkpoint %s: %w", root.CID.Short(), err)
		}
	}
	return keep, nil
}

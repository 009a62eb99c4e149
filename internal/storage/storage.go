// Package storage implements the decentralized content-addressed storage
// network that replaces direct peer-to-peer communication in the modified
// IPLS protocol (§III-B). It plays the role IPFS plays in the paper: blocks
// are stored and retrieved by their SHA-256 content ID, data can be
// replicated across nodes for availability (§VI), and nodes support the
// merge-and-download operation (§III-E) that pre-aggregates gradient blocks
// before shipping them to an aggregator.
//
// The network is honest-but-unreliable: nodes may fail (and recover), and a
// test hook can corrupt stored bytes, because the paper explicitly does not
// assume retrieved data is correct — parties verify CIDs themselves.
package storage

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipls/internal/cid"
	"ipls/internal/dag"
	"ipls/internal/model"
	"ipls/internal/obs"
	"ipls/internal/scalar"
)

// Errors reported by the storage network.
var (
	// ErrNotFound indicates no reachable node holds the requested block.
	ErrNotFound = errors.New("storage: block not found")
	// ErrNodeDown indicates the addressed node is unavailable.
	ErrNodeDown = errors.New("storage: node is down")
	// ErrNodeDeparted indicates the addressed node has permanently left the
	// network (its blocks are gone). Unlike ErrNodeDown it never heals —
	// only a read by content from another replica can serve the data.
	ErrNodeDeparted = errors.New("storage: node has departed")
	// ErrUnknownNode indicates the node ID is not part of the network.
	ErrUnknownNode = errors.New("storage: unknown node")
	// ErrPartitioned indicates the addressed node is isolated by an active
	// network partition (Partition): it is up, holds its blocks, and will
	// serve again once the split Heals — transient, like ErrNodeDown, but
	// no amount of retrying helps until the partition window closes.
	ErrPartitioned = errors.New("storage: node is partitioned away")
)

// Client is the view protocol participants have of the storage network:
// enough to upload gradients, download blocks, and request pre-aggregation.
// Every method takes a context first: cancellation and deadlines flow from
// the caller down to the serving node (and, for the TCP backend, across
// the wire).
//
// Stored blocks are write-once and shared: Put hands data over to the
// network, which may keep the slice itself, so the caller must not write to
// it afterwards; the bytes Get returns may be the stored slice itself, so
// the caller must not write to them either.
type Client interface {
	// Put stores data on the addressed node (plus replicas) and returns
	// its content ID. It takes ownership of data.
	Put(ctx context.Context, nodeID string, data []byte) (cid.CID, error)
	// Get retrieves a block from the addressed node. The bytes are
	// read-only.
	Get(ctx context.Context, nodeID string, c cid.CID) ([]byte, error)
	// MergeGet asks the addressed node to pre-aggregate the gradient
	// blocks with the given CIDs and returns the serialized sum block.
	MergeGet(ctx context.Context, nodeID string, cs []cid.CID) ([]byte, error)
}

// Placement selects how replicas are assigned to nodes.
type Placement int

// Placement policies.
const (
	// PlacementRing stores replicas on the primary's successors in node
	// ID order — simple, but a fixed primary always hits the same
	// successors.
	PlacementRing Placement = iota + 1
	// PlacementRendezvous scores each node by hash(CID, node ID) and
	// stores replicas on the top scorers — the §VI proposal for a
	// "uniform allocation of gradients to nodes ... based on the hash of
	// the gradients and the nodes id's", which also makes the replica
	// set unpredictable to colluding parties.
	PlacementRendezvous
)

// StoreConfig selects the BlockStore backend the network's nodes use.
// The zero value is the in-memory backend.
type StoreConfig struct {
	// Backend is "mem" (default) or "fs".
	Backend string
	// Dir is the fs backend's root; each node stores under Dir/<node id>,
	// so one directory hosts a whole local network and a restarted node
	// reopens its own blocks.
	Dir string
	// CacheBlocks is the LRU block-cache capacity (in blocks) layered over
	// the fs backend. 0 disables the cache. Ignored for mem (the map IS
	// memory; caching it again buys nothing).
	CacheBlocks int
}

// Backend names accepted by StoreConfig.Backend and the IPLS_STORE env var.
const (
	BackendMem = "mem"
	BackendFS  = "fs"
)

// Network is a storage network of nodes, each backed by a BlockStore.
//
// mu guards membership, availability, placement, provider records and
// counters. The data path never holds it while hashing a block or doing
// store I/O (one race aside, see storeKnown): Put, Get, Fetch, MergeGet
// and DeleteAll take it to snapshot what they need and again to announce
// and count. locks orders the operations on one CID that write or delete
// stores (a put, a merge's remote fetch, Delete, DeleteAll, GC) against
// each other; the order is always locks, then mu, then a store's own locks.
type Network struct {
	mu        sync.Mutex
	locks     cidLocks
	field     *scalar.Field
	replicas  int
	placement Placement
	storeCfg  StoreConfig
	nodes     map[string]*Node
	order     []string
	pubsub    *PubSub

	// providers is the advertised placement: per CID, the set of nodes
	// that have announced they hold the block (the stand-in for IPFS DHT
	// provider records). Repair reads it instead of scanning datastores,
	// and withdrawal on Depart/Delete keeps placement from going stale.
	providers map[cid.CID]map[string]bool

	reg             *obs.Registry
	remoteFetchCtr  *obs.Counter
	mergeOps        *obs.Counter
	mergeBytesSaved *obs.Counter
	repairCtr       *obs.Counter
	underRepl       *obs.Gauge
	partitionActive *obs.Gauge
	partitionHeals  *obs.Counter
	cacheHits       *obs.Counter
	cacheMisses     *obs.Counter
	gcBlocks        *obs.Counter
	gcBytes         *obs.Counter

	// spans is read without mu, so an un-instrumented call locks once.
	spans atomic.Pointer[obs.SpanSink]
	// repairSeq numbers RepairScan passes so each scan's "repair" span
	// lands in its own (session, iter) trace.
	repairSeq int

	// faultRand drives flaky-node coin flips; seeded via SetFaultSeed so
	// fault-injection runs are reproducible.
	faultRand *rand.Rand
}

var _ Client = (*Network)(nil)

// NewNetwork creates a storage network on the in-memory backend. The field
// is needed so nodes can merge gradient blocks; replicas is the number of
// nodes each block is stored on (minimum 1).
func NewNetwork(field *scalar.Field, replicas int) *Network {
	return NewNetworkWithStore(field, replicas, StoreConfig{})
}

// NewNetworkWithStore creates a storage network whose nodes use the
// configured BlockStore backend.
func NewNetworkWithStore(field *scalar.Field, replicas int, cfg StoreConfig) *Network {
	if replicas < 1 {
		replicas = 1
	}
	n := &Network{
		field:     field,
		replicas:  replicas,
		placement: PlacementRing,
		storeCfg:  cfg,
		nodes:     make(map[string]*Node),
		providers: make(map[cid.CID]map[string]bool),
		pubsub:    NewPubSub(),
	}
	n.setMetricsLocked(nil) // private registry until SetMetrics is called
	return n
}

// SetPlacement selects the replica placement policy.
func (n *Network) SetPlacement(p Placement) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.placement = p
}

// Announce publishes a pub/sub message (IPFS pub/sub, used by aggregators
// to announce partial-update hashes, §IV-B).
func (n *Network) Announce(topic, from string, data []byte) {
	n.pubsub.Publish(topic, from, data)
}

// Listen returns announcements on topic from the given cursor, plus the
// next cursor.
func (n *Network) Listen(topic string, since int) ([]Announcement, int) {
	return n.pubsub.Fetch(topic, since)
}

// ForgetTopic drops a topic's retained announcements.
func (n *Network) ForgetTopic(topic string) {
	n.pubsub.Forget(topic)
}

// Node is a single storage host. Its datastore is a BlockStore backend —
// the in-memory map it grew up with, or the durable on-disk CAS store.
// The flags and merge counts are guarded by Network.mu; the store, metrics
// and backendErr are read without it.
type Node struct {
	id          string
	store       BlockStore
	down        bool
	departed    bool
	partitioned bool
	cheatMerges bool
	slow        time.Duration // fault injection: per-operation service delay
	flaky       float64       // fault injection: transient-failure probability
	metrics     atomic.Pointer[nodeMetrics]

	// openErr is a sticky failure from opening the configured backend
	// (the node is running on a memory fallback); backendErr is the last
	// unresolved per-operation infrastructure failure (I/O error, corrupt
	// block on disk) and a successful Put/Get clears it. Health surfaces
	// both as a distinct readiness failure.
	openErr    error
	backendErr atomic.Pointer[error]

	// MergeOps counts merge-and-download requests served, and
	// MergedBlocks the total number of gradient blocks folded into them.
	MergeOps     int
	MergedBlocks int
}

// availErr reports why the node cannot serve requests (nil when it can).
func (nd *Node) availErr() error {
	if nd.departed {
		return fmt.Errorf("%w: %q", ErrNodeDeparted, nd.id)
	}
	if nd.down {
		return fmt.Errorf("%w: %q", ErrNodeDown, nd.id)
	}
	if nd.partitioned {
		return fmt.Errorf("%w: %q", ErrPartitioned, nd.id)
	}
	return nil
}

// unavailable reports whether the node is out of service for placement
// and content routing: down, departed, or isolated by a partition.
func (nd *Node) unavailable() bool {
	return nd.down || nd.departed || nd.partitioned
}

// noteStoreErr records (or, on success, clears) the node's backend failure
// state. Only infrastructure failures count: ErrNotFound is a normal miss.
func (nd *Node) noteStoreErr(err error) {
	switch {
	case err == nil:
		if nd.backendErr.Load() != nil {
			nd.backendErr.Store(nil)
		}
	case errors.Is(err, ErrBackend) || errors.Is(err, ErrIntegrity):
		e := err
		nd.backendErr.Store(&e)
	}
}

// StoredBlocks returns how many distinct blocks the node holds.
func (nd *Node) StoredBlocks() int {
	if l, ok := nd.store.(interface{ Len() int }); ok {
		return l.Len()
	}
	keys, err := nd.store.Keys(context.Background())
	if err != nil {
		return 0
	}
	return len(keys)
}

// blockCIDs returns the CIDs of all blocks the node holds, in sorted order.
func (nd *Node) blockCIDs() []cid.CID {
	keys, err := nd.store.Keys(context.Background())
	if err != nil {
		return nil
	}
	return keys
}

// StoredBytes returns the total bytes the node holds.
func (nd *Node) StoredBytes() int64 { return storeBytes(nd.store) }

// newStoreLocked builds a node's BlockStore per the network's StoreConfig.
func (n *Network) newStoreLocked(id string) (BlockStore, error) {
	switch n.storeCfg.Backend {
	case "", BackendMem:
		return NewMemStore(), nil
	case BackendFS:
		fs, err := OpenFSStore(filepath.Join(n.storeCfg.Dir, id))
		if err != nil {
			return nil, err
		}
		if n.storeCfg.CacheBlocks > 0 {
			cs := NewCachedStore(fs, n.storeCfg.CacheBlocks)
			cs.SetMetrics(n.cacheHits, n.cacheMisses)
			return cs, nil
		}
		return fs, nil
	default:
		return nil, fmt.Errorf("%w: unknown backend %q", ErrBackend, n.storeCfg.Backend)
	}
}

// AddNode registers a storage node on the network's configured backend.
// When the backend cannot be opened (e.g. unwritable -store-dir) the node
// falls back to a memory store and carries the failure as a backend error,
// so the network stays usable while Health and /readyz report the broken
// disk distinctly. A disk-backed node that reopens a non-empty directory
// re-announces every block it holds — the restart path that lets a rejoined
// node serve its pre-crash blocks without re-replication.
func (n *Network) AddNode(id string) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("storage: duplicate node %q", id))
	}
	st, err := n.newStoreLocked(id)
	if err != nil {
		st = NewMemStore()
	}
	nd := &Node{id: id, store: st, openErr: err}
	nd.metrics.Store(resolveNodeMetrics(n.reg, id))
	n.nodes[id] = nd
	n.order = append(n.order, id)
	sort.Strings(n.order)
	if keys, kerr := st.Keys(context.Background()); kerr == nil {
		for _, c := range keys {
			n.announceLocked(id, c)
		}
	}
	return nd
}

// Close closes every node's BlockStore. Disk-backed blocks survive for the
// next Open; the network must not serve requests afterwards.
func (n *Network) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	var first error
	for _, id := range n.order {
		if err := n.nodes[id].store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// LiveNodes returns the IDs of nodes currently able to serve requests
// (not down, departed, or partitioned away), in deterministic order.
func (n *Network) LiveNodes() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.order))
	for _, id := range n.order {
		if n.nodes[id].unavailable() {
			continue
		}
		out = append(out, id)
	}
	return out
}

// Health reports whether the network can currently serve: nil when every
// node's backend is sound and at least `replicas` nodes are live. Backend
// failures (unwritable store directory, corrupt block on disk) are checked
// first and reported wrapped in ErrBackend — a distinct readiness failure
// from "not enough replicas live", so /readyz can tell a broken disk from
// a thin quorum. It is the "storage" component check behind the
// introspection readiness probe.
// healthBackendErr presents a node's stored backend trouble as ErrBackend
// for readiness classification, without stacking the sentinel twice when
// the error (an open failure) already carries it; integrity rot is stored
// bare and picks the sentinel up here.
func healthBackendErr(id string, err error) error {
	if errors.Is(err, ErrBackend) {
		return fmt.Errorf("node %q: %w", id, err)
	}
	return fmt.Errorf("%w: node %q: %v", ErrBackend, id, err)
}

func (n *Network) Health() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, id := range n.order {
		nd := n.nodes[id]
		if nd.openErr != nil {
			return healthBackendErr(id, nd.openErr)
		}
		if err := nd.backendErr.Load(); err != nil {
			return healthBackendErr(id, *err)
		}
	}
	// An active partition is a readiness failure in its own right: the
	// isolated side holds blocks the mainline cannot reach, so replica
	// guarantees do not hold until the split heals.
	if isolated := n.partitionedLocked(); len(isolated) > 0 {
		return fmt.Errorf("storage: network partitioned: %d node(s) isolated (%s)",
			len(isolated), strings.Join(isolated, ", "))
	}
	live := 0
	for _, id := range n.order {
		if !n.nodes[id].unavailable() {
			live++
		}
	}
	need := n.replicas
	if need < 1 {
		need = 1
	}
	if live < need {
		return fmt.Errorf("storage: %d/%d nodes live, need %d for replication", live, len(n.order), need)
	}
	return nil
}

// nodeIDs returns all node identifiers in deterministic order.
func (n *Network) nodeIDs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.order))
	copy(out, n.order)
	return out
}

// Node looks up a node by ID.
func (n *Network) Node(id string) (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	return nd, nil
}

// Fail marks a node as unavailable (transient: its blocks survive and
// Recover brings it back). Failing a departed node is an error — departure
// is permanent.
func (n *Network) Fail(id string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	if nd.departed {
		return fmt.Errorf("%w: %q", ErrNodeDeparted, id)
	}
	nd.down = true
	return nil
}

// Recover brings a failed node back (its blocks survive, as an IPFS node's
// datastore would) and re-announces every block it holds to the provider
// sets — the IPFS re-provide step — so placement that went stale while the
// node was down (e.g. a RepairScan withdrew its records) is restored.
// Departed nodes cannot Recover; they must Rejoin, empty.
func (n *Network) Recover(id string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	if nd.departed {
		return fmt.Errorf("%w: %q", ErrNodeDeparted, id)
	}
	nd.down = false
	keys, err := nd.store.Keys(context.Background())
	if err != nil {
		nd.noteStoreErr(err)
		return fmt.Errorf("storage: recover %q: %w", id, err)
	}
	for _, c := range keys {
		n.announceLocked(id, c)
	}
	return nil
}

// Depart permanently removes a node from service: unlike Fail, its blocks
// are lost and its provider records withdrawn — the "nodes may go offline
// at any time" case (§III-A) where the datastore leaves with the node.
// Only RepairScan re-replicating from surviving replicas restores the
// replication factor afterwards.
func (n *Network) Depart(id string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	if nd.departed {
		return fmt.Errorf("%w: %q (already departed)", ErrNodeDeparted, id)
	}
	nd.departed = true
	nd.down = true
	keys, _ := nd.store.Keys(context.Background())
	for _, c := range keys {
		n.withdrawLocked(id, c)
		nd.store.Delete(context.Background(), c)
	}
	return nil
}

// Rejoin brings a departed node back into service with an empty datastore
// (a fresh join under the old identity). The node is immediately eligible
// as a replica target and repair destination.
func (n *Network) Rejoin(id string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	if !nd.departed {
		return fmt.Errorf("storage: rejoin %q: node has not departed", id)
	}
	nd.departed = false
	nd.down = false
	return nil
}

// announceLocked records id as a provider of c. Callers hold n.mu.
func (n *Network) announceLocked(id string, c cid.CID) {
	set, ok := n.providers[c]
	if !ok {
		set = make(map[string]bool)
		n.providers[c] = set
	}
	set[id] = true
}

// withdrawLocked removes id's provider record for c. Callers hold n.mu.
func (n *Network) withdrawLocked(id string, c cid.CID) {
	set, ok := n.providers[c]
	if !ok {
		return
	}
	delete(set, id)
	if len(set) == 0 {
		delete(n.providers, c)
	}
}

// providerIDs returns the nodes currently advertising c, in sorted order
// (records may be stale until the next RepairScan prunes them).
func (n *Network) providerIDs(c cid.CID) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.providers[c]))
	for id := range n.providers[c] {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// replicaCount returns how many live nodes actually hold c — the block's
// effective replication factor right now.
func (n *Network) replicaCount(c cid.CID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.liveReplicasLocked(c)
}

func (n *Network) liveReplicasLocked(c cid.CID) int {
	count := 0
	for _, nd := range n.nodes {
		if nd.unavailable() {
			continue
		}
		if ok, _ := nd.store.Has(context.Background(), c); ok {
			count++
		}
	}
	return count
}

// Corrupt flips a byte of the stored block on one node — a test hook for
// the "we do not assume correctness of retrieved data" adversary (§III-A).
// On the memory backend the corrupt bytes are served as-is (callers verify
// CIDs); the disk backend detects the rot on read and Get reports
// ErrIntegrity instead.
func (n *Network) Corrupt(id string, c cid.CID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	corrupter, ok := nd.store.(Corrupter)
	if !ok {
		return fmt.Errorf("%w: store on %q has no corruption hook", ErrBackend, id)
	}
	return corrupter.Corrupt(context.Background(), c)
}

// CheatMerges makes a node return subtly corrupted merge-and-download
// results — a test hook for the §IV check that the merged block's
// commitment equals the product of its constituents' commitments.
func (n *Network) CheatMerges(id string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	nd.cheatMerges = true
	return nil
}

// Delete removes a block from one node. Deleting an absent block is a
// no-op, mirroring IPFS unpinning semantics.
func (n *Network) Delete(nodeID string, c cid.CID) error {
	lk := n.locks.of(c)
	lk.Lock()
	defer lk.Unlock()
	nd, err := n.Node(nodeID)
	if err != nil {
		return err
	}
	if err := nd.store.Delete(context.Background(), c); err != nil {
		nd.noteStoreErr(err)
		return err
	}
	n.mu.Lock()
	n.withdrawLocked(nodeID, c)
	n.mu.Unlock()
	return nil
}

// DeleteAll removes a block from every node: the per-iteration garbage
// collection that keeps the storage footprint of the protocol constant
// ("gradients and updates [are] only needed for a short period of time",
// §VI).
func (n *Network) DeleteAll(c cid.CID) {
	var buf [16]*Node
	n.deleteEverywhere(c, n.snapshot(buf[:0], false), false)
}

// deleteEverywhere removes c from the listed nodes' stores and then drops
// its provider records, holding c's lock so no put, merge fetch or other
// delete of c interleaves. Stores go first: a Recover or Heal that
// re-announces c in between is undone by the withdrawal. With sized, freed
// totals the bytes of the copies deleted.
func (n *Network) deleteEverywhere(c cid.CID, nodes []*Node, sized bool) (dropped bool, freed int64) {
	lk := n.locks.of(c)
	lk.Lock()
	defer lk.Unlock()
	ctx := context.Background()
	for _, nd := range nodes {
		if has, _ := nd.store.Has(ctx, c); !has {
			continue
		}
		var size int64
		if sized {
			if data, err := nd.store.Get(ctx, c); err == nil {
				size = int64(len(data))
			}
		}
		if err := nd.store.Delete(ctx, c); err != nil {
			nd.noteStoreErr(err)
			continue
		}
		dropped = true
		freed += size
	}
	n.mu.Lock()
	delete(n.providers, c)
	n.mu.Unlock()
	return dropped, freed
}

// snapshot appends the network's nodes in ID order to buf — only those able
// to serve when serving is set — taking mu just for the walk.
func (n *Network) snapshot(buf []*Node, serving bool) []*Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, id := range n.order {
		if nd := n.nodes[id]; !serving || !nd.unavailable() {
			buf = append(buf, nd)
		}
	}
	return buf
}

// Put stores data on the addressed node and on replicas-1 successor nodes
// in ring order, returning the block's CID. Successors that are down are
// skipped; the primary must be up.
//
// Put hashes the block once, before any lock, and takes mu twice: to admit
// the primary and place the replicas, and to announce the copies once they
// are written. A put is ordered at that second point. It announces only the
// nodes still serving then, and fails with the primary's sentinel if the
// primary stopped serving while its copy was being written.
func (n *Network) Put(ctx context.Context, nodeID string, data []byte) (cid.CID, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	c := cid.Sum(data)
	var buf [4]write
	n.mu.Lock()
	nd, fault, err := n.admitLocked(nodeID)
	ws := buf[:0]
	if err == nil {
		ws = n.placeLocked(ws, nd, c)
	}
	n.mu.Unlock()
	if err == nil {
		err = fault.serve(ctx, nodeID)
	}
	if err != nil {
		return "", err
	}
	// Every replica's store gets data itself: the memory backend keeps the
	// slice (replicas share payload), the disk backend writes its own file
	// from it.
	n.storeKnown(ctx, c, data, ws)
	if ws[0].err != nil {
		return "", ws[0].err
	}
	m := nd.metrics.Load()
	m.blocksStored.Inc()
	m.bytesUploaded.Add(int64(len(data)))
	for _, w := range ws[1:] {
		if w.err == nil {
			w.nd.metrics.Load().blocksReplicated.Inc()
		}
	}
	return c, nil
}

// write is one store's share of a put: the node and the outcome.
type write struct {
	nd  *Node
	err error
}

// placeLocked appends the primary and its replica targets to ws. Callers
// hold n.mu.
func (n *Network) placeLocked(ws []write, primary *Node, c cid.CID) []write {
	ws = append(ws, write{nd: primary})
	if n.replicas > 1 {
		for _, id := range n.replicaTargets(primary.id, c) {
			ws = append(ws, write{nd: n.nodes[id]})
		}
	}
	return ws
}

// storeKnown writes data, whose CID is c, to every target's store and then
// announces the targets still serving, setting each write's err. If the
// first target's write fails the rest are not tried. c's lock is held
// throughout, so a delete of c falls wholly before or after; mu is held
// only for the announcements.
func (n *Network) storeKnown(ctx context.Context, c cid.CID, data []byte, ws []write) {
	lk := n.locks.of(c)
	lk.Lock()
	defer lk.Unlock()
	for i := range ws {
		w := &ws[i]
		w.err = w.nd.store.PutKnown(ctx, c, data)
		w.nd.noteStoreErr(w.err)
		if i == 0 && w.err != nil {
			return
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range ws {
		w := &ws[i]
		if w.err != nil {
			continue
		}
		if w.err = w.nd.availErr(); w.err == nil {
			n.announceLocked(w.nd.id, c)
		} else if w.nd.departed {
			// The node departed after placement, and its copy may have
			// landed after Depart wiped the datastore: a departed node holds
			// nothing. The data path's only store I/O under mu, and only on
			// that race.
			w.nd.store.Delete(context.Background(), c)
		}
	}
}

// replicaTargets picks replicas-1 live nodes (other than the primary)
// according to the placement policy.
func (n *Network) replicaTargets(primary string, c cid.CID) []string {
	want := n.replicas - 1
	var out []string
	switch n.placement {
	case PlacementRendezvous:
		// Highest-random-weight: score every candidate by
		// hash(CID, node) and take the top scorers.
		type scored struct {
			id    string
			score uint64
		}
		cands := make([]scored, 0, len(n.order))
		for _, id := range n.order {
			if id == primary || n.nodes[id].unavailable() {
				continue
			}
			cands = append(cands, scored{id: id, score: rendezvousScore(c, id)})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].score != cands[j].score {
				return cands[i].score > cands[j].score
			}
			return cands[i].id < cands[j].id
		})
		for i := 0; i < len(cands) && i < want; i++ {
			out = append(out, cands[i].id)
		}
	default: // PlacementRing
		idx := sort.SearchStrings(n.order, primary)
		for step := 1; step < len(n.order) && len(out) < want; step++ {
			id := n.order[(idx+step)%len(n.order)]
			if n.nodes[id].unavailable() {
				continue
			}
			out = append(out, id)
		}
	}
	return out
}

// rendezvousScore hashes (CID, node ID) into a 64-bit weight.
func rendezvousScore(c cid.CID, nodeID string) uint64 {
	h := sha256.New()
	h.Write([]byte(c))
	h.Write([]byte{0})
	h.Write([]byte(nodeID))
	sum := h.Sum(nil)
	return binary.BigEndian.Uint64(sum)
}

// Get retrieves a block from the addressed node. On the memory backend the
// caller is responsible for verifying the returned bytes against the CID;
// the disk backend re-hashes on read and reports rot as ErrIntegrity.
func (n *Network) Get(ctx context.Context, nodeID string, c cid.CID) ([]byte, error) {
	nd, err := n.gate(ctx, nodeID)
	if err != nil {
		return nil, err
	}
	data, err := nd.store.Get(ctx, c)
	nd.noteStoreErr(err)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil, fmt.Errorf("%w: %s on %q", ErrNotFound, c.Short(), nodeID)
		}
		return nil, err
	}
	nd.metrics.Load().bytesDownloaded.Add(int64(len(data)))
	return data, nil
}

// Fetch retrieves a block from any live node (content routing). Like Get's,
// its bytes are read-only.
func (n *Network) Fetch(ctx context.Context, c cid.CID) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, holder, err := n.fetch(ctx, c)
	if err != nil {
		return nil, err
	}
	if holder == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, c.Short())
	}
	holder.metrics.Load().bytesDownloaded.Add(int64(len(data)))
	return data, nil
}

// fetch finds the first live node, in ID order, holding a copy of c that
// hashes to c, returning the bytes and the node that served them (nil when
// there is none). Each holder is admitted as gate admits a direct read, so
// its injected slowness and flakiness apply. A holder that flakes, whose
// backend fails the read (integrity or I/O) or whose copy does not verify
// is skipped — content routing falls through to the next replica. Once ctx
// is done, fetch reports ctx's error. mu is held only to list the live
// nodes and to admit each holder.
func (n *Network) fetch(ctx context.Context, c cid.CID) ([]byte, *Node, error) {
	var buf [16]*Node
	for _, nd := range n.snapshot(buf[:0], true) {
		if ok, _ := nd.store.Has(ctx, c); !ok {
			continue
		}
		if _, err := n.gate(ctx, nd.id); err != nil {
			continue
		}
		data, err := nd.store.Get(ctx, c)
		if err != nil {
			nd.noteStoreErr(err)
			continue
		}
		if cid.Verify(data, c) {
			return data, nd, nil
		}
	}
	return nil, nil, ctx.Err()
}

// SetSpans installs the sink that receives storage-side spans: merge
// operations served with a caller's span context are recorded as "merge"
// spans under it. Pass nil to disable.
func (n *Network) SetSpans(sink obs.SpanSink) { n.spans.Store(&sink) }

// spanSink returns the installed span sink, nil when there is none.
func (n *Network) spanSink() obs.SpanSink {
	if p := n.spans.Load(); p != nil {
		return *p
	}
	return nil
}

// MergeGet implements merge-and-download: the addressed node decodes the
// gradient blocks with the given CIDs, sums them in the scalar field and
// returns one aggregated block. Blocks the node does not hold locally are
// fetched from peers first (counted in remote_fetches_total).
func (n *Network) MergeGet(ctx context.Context, nodeID string, cs []cid.CID) ([]byte, error) {
	return n.MergeGetSpan(ctx, nodeID, cs, obs.SpanContext{})
}

// MergeGetSpan is MergeGet carrying the caller's span context across the
// storage boundary: when a span sink is installed and the context is
// valid, the serving node records the merge as a "merge" span parented
// under the caller's span — the storage-side half of the causal trace
// linking an aggregator's download to the pre-aggregation done for it.
func (n *Network) MergeGetSpan(ctx context.Context, nodeID string, cs []cid.CID, parent obs.SpanContext) ([]byte, error) {
	sink := n.spanSink()
	if sink == nil || !parent.Valid() {
		return n.mergeGet(ctx, nodeID, cs)
	}
	start := time.Now()
	out, err := n.mergeGet(ctx, nodeID, cs)
	sp := obs.Span{
		Name:    "merge",
		Actor:   nodeID,
		Context: parent.Child(),
		Start:   start,
		End:     time.Now(),
		Attrs:   map[string]string{"blocks": strconv.Itoa(len(cs))},
	}
	if err != nil {
		sp.Attrs["error"] = err.Error()
	} else {
		sp.Bytes = int64(len(out))
	}
	sink.EmitSpan(sp)
	return out, err
}

// mergeGet takes n.mu twice, briefly: to admit the serving node and to
// count the merge. The inputs are read and model.Merge runs without it;
// stored blocks are immutable, so a racing Fail or DeleteAll can make an
// input missing but never change its bytes.
func (n *Network) mergeGet(ctx context.Context, nodeID string, cs []cid.CID) ([]byte, error) {
	nd, err := n.gate(ctx, nodeID)
	if err != nil {
		return nil, err
	}
	if len(cs) == 0 {
		return nil, errors.New("storage: merge of zero blocks")
	}
	datas := make([][]byte, 0, len(cs))
	for _, c := range cs {
		// A cancelled caller stops the merge between blocks: the deadline
		// that arrived with the request bounds server-side work too.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		data, gerr := nd.store.Get(ctx, c)
		if gerr != nil {
			nd.noteStoreErr(gerr)
			if data, err = n.fetchForMerge(ctx, nd, c); err != nil {
				return nil, err
			}
		}
		datas = append(datas, data)
	}
	out, err := model.Merge(n.field, datas...)
	if err != nil {
		return nil, fmt.Errorf("storage: merge on %q: %w", nodeID, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd.cheatMerges && len(out) >= 4+scalar.ElementSize {
		// A lazy or malicious provider quietly mis-aggregates.
		first := out[4 : 4+scalar.ElementSize]
		n.field.Add(new(big.Int).SetBytes(first), big.NewInt(1)).FillBytes(first)
	}
	nd.MergeOps++
	nd.MergedBlocks += len(datas)
	nd.metrics.Load().bytesDownloaded.Add(int64(len(out)))
	n.mergeOps.Inc()
	// Every input is as long as the sum, so all but one of them is saved.
	n.mergeBytesSaved.Add(int64(len(datas)-1) * int64(len(out)))
	return out, nil
}

// fetchForMerge serves a merge input nd does not hold: a verified copy from
// a peer (ErrNotFound when no live peer serves one), which nd then keeps
// and announces, as an IPFS node caches what it fetched.
func (n *Network) fetchForMerge(ctx context.Context, nd *Node, c cid.CID) ([]byte, error) {
	data, holder, err := n.fetch(ctx, c)
	if err != nil {
		return nil, err
	}
	if holder == nil {
		return nil, fmt.Errorf("%w: %s for merge on %q", ErrNotFound, c.Short(), nd.id)
	}
	n.mu.Lock()
	n.remoteFetchCtr.Inc()
	n.mu.Unlock()
	ws := [1]write{{nd: nd}}
	n.storeKnown(ctx, c, data, ws[:])
	return data, nil
}

// PutDAG chunks a large object into a Merkle DAG and stores every block on
// the addressed node (with the network's replication policy applied per
// block). It returns the root reference. chunkSize <= 0 uses the IPFS
// default of 256 KiB.
func (n *Network) PutDAG(ctx context.Context, nodeID string, data []byte, chunkSize int) (dag.Ref, error) {
	root, blocks, err := dag.Build(data, chunkSize)
	if err != nil {
		return dag.Ref{}, err
	}
	// Store in deterministic order so replica placement is reproducible.
	ids := make([]cid.CID, 0, len(blocks))
	for c := range blocks {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, c := range ids {
		stored, err := n.Put(ctx, nodeID, blocks[c])
		if err != nil {
			return dag.Ref{}, err
		}
		if stored != c {
			return dag.Ref{}, fmt.Errorf("storage: DAG block CID drifted: %s != %s", stored.Short(), c.Short())
		}
	}
	return root, nil
}

// GetDAG reassembles an object from its root reference, fetching blocks
// from the addressed node with content-routing fallback and verifying
// every block against its CID.
func (n *Network) GetDAG(ctx context.Context, nodeID string, root dag.Ref) ([]byte, error) {
	return dag.Assemble(root, func(c cid.CID) ([]byte, error) {
		data, err := n.Get(ctx, nodeID, c)
		if err != nil {
			return n.Fetch(ctx, c)
		}
		return data, nil
	})
}

// TotalStoredBytes sums stored bytes across all nodes (replicas included),
// used by the blockchain-baseline comparison.
func (n *Network) TotalStoredBytes() int64 {
	n.mu.Lock()
	nodes := make([]*Node, 0, len(n.order))
	for _, id := range n.order {
		nodes = append(nodes, n.nodes[id])
	}
	n.mu.Unlock()
	var total int64
	for _, nd := range nodes {
		total += nd.StoredBytes()
	}
	return total
}

package ipls

import (
	"ipls/internal/baseline"
	"ipls/internal/core"
	"ipls/internal/deals"
	"ipls/internal/directory"
	"ipls/internal/gossip"
	"ipls/internal/group"
	"ipls/internal/identity"
	"ipls/internal/ml"
	"ipls/internal/scalar"
	"ipls/internal/scenario"
	"ipls/internal/storage"
	"ipls/internal/transport"
)

// This file is the library's public API: a curated facade over the
// implementation packages. Downstream users import "ipls" and get the
// protocol (TaskSpec → Config → Session/Task), the storage and directory
// backends, the virtual-time simulator and the ML substrate, without
// reaching into internal packages.

// ---- Task configuration -------------------------------------------------

// TaskSpec declares a federated-learning task (see core.TaskSpec).
type TaskSpec = core.TaskSpec

// Config is the deterministic expansion of a TaskSpec shared by all
// participants.
type Config = core.Config

// NewConfig validates and expands a TaskSpec.
func NewConfig(ts TaskSpec) (*Config, error) { return core.NewConfig(ts) }

// AggregatorID names the j-th aggregator of partition p.
func AggregatorID(p, j int) string { return core.AggregatorID(p, j) }

// ---- Protocol execution --------------------------------------------------

// Session executes the protocol against pluggable storage and directory
// backends.
type Session = core.Session

// NewSession creates a session over explicit backends (e.g. TCP clients).
func NewSession(cfg *Config, store StorageClient, dir DirectoryClient) (*Session, error) {
	return core.NewSession(cfg, store, dir)
}

// NewLocalStack wires an in-memory deployment: storage network, directory
// service and session.
func NewLocalStack(cfg *Config, replicas int) (*Session, *StorageNetwork, *DirectoryService, error) {
	return core.NewLocalStack(cfg, replicas)
}

// StorageClient is the participant's view of the storage network.
type StorageClient = storage.Client

// DirectoryClient is the participant's view of the directory service.
type DirectoryClient = core.Directory

// Aggregator behaviors (honest and the §III-A malicious deviations).
type Behavior = core.Behavior

// Behavior values.
const (
	BehaviorHonest        = core.BehaviorHonest
	BehaviorDropGradient  = core.BehaviorDropGradient
	BehaviorAlterGradient = core.BehaviorAlterGradient
	BehaviorForgeUpdate   = core.BehaviorForgeUpdate
	BehaviorDropout       = core.BehaviorDropout
)

// IterationResult is the outcome of one protocol iteration.
type IterationResult = core.IterationResult

// AggregatorReport summarizes one aggregator's iteration.
type AggregatorReport = core.AggregatorReport

// ---- Federated-learning driver -------------------------------------------

// Task drives a complete FL job (local SGD → protocol → global model).
type Task = core.Task

// NewTask builds a task over a session.
func NewTask(s *Session, m Model, locals map[string]*Dataset, sgd SGDConfig, initial []float64) (*Task, error) {
	return core.NewTask(s, m, locals, sgd, initial)
}

// RoundMetrics reports one FL round.
type RoundMetrics = core.RoundMetrics

// ---- Machine-learning substrate -------------------------------------------

// Model is a differentiable classifier with a flat parameter vector.
type Model = ml.Model

// Dataset is a labelled classification dataset.
type Dataset = ml.Dataset

// SGDConfig configures local training.
type SGDConfig = ml.SGDConfig

// NewLogistic creates a softmax-regression model.
func NewLogistic(features, classes int) *ml.Logistic { return ml.NewLogistic(features, classes) }

// NewMLP creates a one-hidden-layer network with seeded initialization.
func NewMLP(features, hidden, classes int, seed int64) *ml.MLP {
	return ml.NewMLP(features, hidden, classes, seed)
}

// Blobs generates a Gaussian-blobs dataset.
func Blobs(n, features, classes int, spread float64, seed int64) *Dataset {
	return ml.Blobs(n, features, classes, spread, seed)
}

// Rings generates a non-linearly-separable concentric-rings dataset.
func Rings(n, classes int, noise float64, seed int64) *Dataset {
	return ml.Rings(n, classes, noise, seed)
}

// Accuracy scores a model on a dataset.
func Accuracy(m Model, d *Dataset) float64 { return ml.Accuracy(m, d) }

// ---- Storage & directory backends -----------------------------------------

// StorageNetwork is the in-memory content-addressed storage network.
type StorageNetwork = storage.Network

// StorageNetworkOptions configures NewStorageNetworkOpts. The zero value is
// valid: default commitment curve, replication factor 1, in-memory blocks.
type StorageNetworkOptions struct {
	// CurveName selects the commitment curve whose scalar field backs
	// merge-and-download arithmetic ("" = secp256r1-fast).
	CurveName string
	// Replicas is the replication factor (minimum 1).
	Replicas int
	// Store selects the per-node block-store backend: the zero value keeps
	// blocks in memory; {Backend: BackendFS, Dir: ...} makes every node a
	// content-addressed on-disk store (with an optional LRU cache) that
	// survives restarts.
	Store StoreConfig
}

// NewStorageNetworkOpts creates a standalone storage network from an options
// struct (NewLocalStack builds an in-memory one automatically).
func NewStorageNetworkOpts(opts StorageNetworkOptions) (*StorageNetwork, error) {
	name := opts.CurveName
	if name == "" {
		name = "secp256r1-fast"
	}
	curve, err := group.ByName(name)
	if err != nil {
		return nil, err
	}
	return storage.NewNetworkWithStore(scalar.NewField(curve.N), opts.Replicas, opts.Store), nil
}

// BlockStore is the pluggable per-node block backend: content-addressed
// Put/Get/Has/Delete/Keys over CIDs. NewMemStore and OpenFSStore are the
// built-in implementations; NewCachedStore layers an LRU block cache over
// either.
type BlockStore = storage.BlockStore

// StoreConfig selects a network's per-node block-store backend.
type StoreConfig = storage.StoreConfig

// Block-store backends.
const (
	BackendMem = storage.BackendMem
	BackendFS  = storage.BackendFS
)

// Block-store error identities: ErrIntegrity marks a block whose on-disk
// bytes no longer hash to its CID (local rot — distinct from a byzantine
// replica, which serves wrong bytes that fail the caller's verification);
// ErrBackend marks an infrastructure failure of the backend itself and is
// what StorageNetwork.Health wraps backend trouble in.
var (
	ErrIntegrity = storage.ErrIntegrity
	ErrBackend   = storage.ErrBackend
)

// NewMemStore creates the in-memory block store (process-lifetime, fastest).
func NewMemStore() BlockStore { return storage.NewMemStore() }

// OpenFSStore opens (or creates) a content-addressed on-disk block store
// rooted at dir. Blocks are keyed by CID in a fanout layout, written with
// atomic temp-file + rename, and re-hashed on read — a mismatch surfaces
// ErrIntegrity. Reopening the same dir serves every previously stored block.
func OpenFSStore(dir string) (BlockStore, error) { return storage.OpenFSStore(dir) }

// NewCachedStore wraps backing with an LRU block cache of capBlocks entries
// (hits/misses surface as storage_cache_{hits,misses}_total).
func NewCachedStore(backing BlockStore, capBlocks int) BlockStore {
	return storage.NewCachedStore(backing, capBlocks)
}

// GCReport summarizes one keep-set garbage-collection sweep.
type GCReport = storage.GCReport

// ---- Durable deployment ----------------------------------------------------

// DurableStack is a local deployment whose storage blocks and directory
// records survive process restarts: blocks on the disk backend under
// StoreDir/blocks/<node>, the directory snapshot at StoreDir/directory.json.
// A reopened stack serves every pre-crash CID without re-replication.
type DurableStack = core.DurableStack

// DurableOptions configures OpenDurableStack.
type DurableOptions = core.DurableOptions

// GCOptions pins the working set (live iterations, checkpoint DAG roots)
// that Session.GCSuperseded must not collect.
type GCOptions = core.GCOptions

// OpenDurableStack wires a disk-backed session/network/directory stack
// rooted at opts.StoreDir, restoring persisted state when present. Close
// persists the directory snapshot back and closes the stores.
func OpenDurableStack(cfg *Config, opts DurableOptions) (*DurableStack, error) {
	return core.OpenDurableStack(cfg, opts)
}

// DirectoryService is the in-process directory service.
type DirectoryService = directory.Service

// Record is a directory record (addr → CID).
type Record = directory.Record

// RepairReport summarizes one StorageNetwork.RepairScan — the
// anti-entropy pass that re-replicates blocks whose live replica count
// was eroded by departures and crashes.
type RepairReport = storage.RepairReport

// ScenarioPlan is a parsed composable fault scenario: one grammar
// covering membership churn, storage faults, link degradation, network
// partitions, Byzantine uploads and late trainers (see ParseScenario).
type ScenarioPlan = scenario.Plan

// ParseScenario parses the comma-separated scenario grammar used by the
// iplssim -scenario flag, e.g.
// "depart:ipfs-03@iter1,partition:mainline|ipfs-01@iter2..3,
// corrupt:trainer-01@iter2,late:trainer-02@iter4".
func ParseScenario(s string) (*ScenarioPlan, error) { return scenario.Parse(s) }

// RoundOptions extends Task rounds with fault injections: absent, late
// or Byzantine trainers, aggregator behaviors, standbys and quorum.
type RoundOptions = core.RoundOptions

// ScenarioRunner drives a Task across rounds under a ScenarioPlan: it
// applies each round's events to the storage network and the protocol
// roles — membership churn (with standby takeover and checkpoint
// bootstrap on rejoin), storage faults, partition windows that open and
// heal (with re-replication), Byzantine uploads and late-delta folding —
// then checkpoints the model and repairs replication, with optional
// m-of-n quorum rounds.
type ScenarioRunner = core.ScenarioRunner

// NewScenarioRunner wires a scenario runner over a task, its storage
// network and a parsed plan.
func NewScenarioRunner(task *Task, net *StorageNetwork, plan *ScenarioPlan) *ScenarioRunner {
	return core.NewScenarioRunner(task, net, plan)
}

// Placement selects the replica placement policy.
type Placement = storage.Placement

// Placement policies.
const (
	PlacementRing       = storage.PlacementRing
	PlacementRendezvous = storage.PlacementRendezvous
)

// ---- Identities -----------------------------------------------------------

// KeyPair is a participant's Ed25519 signing identity; Registry holds the
// public keys the directory authenticates against; Keyring holds the
// private keys a process controls.
type (
	KeyPair  = identity.KeyPair
	Registry = identity.Registry
	Keyring  = identity.Keyring
)

// GenerateIdentity creates a fresh participant identity.
func GenerateIdentity(id string) (*KeyPair, error) { return identity.Generate(id) }

// DeterministicIdentities derives a keyring and registry for the listed
// participants (tests/demos).
func DeterministicIdentities(label string, ids []string) (*Keyring, *Registry) {
	return identity.DeterministicSetup(label, ids)
}

// ---- Networked deployment ---------------------------------------------------

// Server hosts the storage network and directory service over TCP.
type Server = transport.Server

// NewServer creates an empty TCP server; register services, then Listen.
func NewServer() *Server { return transport.NewServer() }

// Client is a TCP connection usable as both StorageClient and
// DirectoryClient.
type Client = transport.Client

// Dial connects to a transport server.
func Dial(addr string) (*Client, error) { return transport.Dial(addr) }

// ---- Evaluation ------------------------------------------------------------

// SimConfig parameterizes a virtual-time protocol simulation; SimResult
// holds its measurements.
type (
	SimConfig = core.SimConfig
	SimResult = core.SimResult
)

// Simulate runs one protocol iteration in virtual time (the paper's delay
// figures).
func Simulate(cfg SimConfig) (*SimResult, error) { return core.Simulate(cfg) }

// AnalyticAggregationDelay evaluates the §III-E closed form
// τ = S·(T/(dP) + P/b) in seconds.
func AnalyticAggregationDelay(partitionBytes int64, trainersPerAgg, providers int, dMbps, bMbps float64) float64 {
	return core.AnalyticAggregationDelay(partitionBytes, trainersPerAgg, providers, dMbps, bMbps)
}

// OptimalProviders returns the §III-E optimum |P_ij| = √(b·|T_ij|/d).
func OptimalProviders(trainersPerAgg int, dMbps, bMbps float64) float64 {
	return core.OptimalProviders(trainersPerAgg, dMbps, bMbps)
}

// GossipConfig parameterizes the purely-decentralized baseline; GossipRun
// executes it.
type GossipConfig = gossip.Config

// GossipRun executes gossip learning for comparison with the protocol.
func GossipRun(m Model, locals []*Dataset, eval *Dataset, initial []float64, cfg GossipConfig) (*gossip.Result, error) {
	return gossip.Run(m, locals, eval, initial, cfg)
}

// BCFLConfig and IPLSConfig parameterize the blockchain-baseline cost
// comparison; BCFLCosts and IPLSCosts evaluate it.
type (
	BCFLConfig = baseline.BCFLConfig
	IPLSConfig = baseline.IPLSConfig
)

// Cost-model entry points for the blockchain baseline comparison.
var (
	BCFLCosts = baseline.BCFLCosts
	IPLSCosts = baseline.IPLSCosts
	BCFLDelay = baseline.BCFLDelay
)

// StorageMarket is the Filecoin-style deal market (§VI availability);
// DealsConfig sets its economic parameters.
type (
	StorageMarket = deals.Market
	DealsConfig   = deals.Config
)

// NewStorageMarket creates a deal market over a storage backend.
func NewStorageMarket(store deals.Retriever, cfg DealsConfig, seed int64) (*StorageMarket, error) {
	return deals.NewMarket(store, cfg, seed)
}

// MarketClient is the account name of the task launcher in the deal
// market.
const MarketClient = deals.Client

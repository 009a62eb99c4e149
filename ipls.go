package ipls

import (
	"ipls/internal/core"
	"ipls/internal/dag"
	"ipls/internal/directory"
	"ipls/internal/group"
	"ipls/internal/ml"
	"ipls/internal/scalar"
	"ipls/internal/scenario"
	"ipls/internal/storage"
)

// This file is the library's public API: a curated facade over the
// implementation packages, holding what the examples use. Downstream users
// import "ipls" and get the protocol (TaskSpec → Config → Session/Task),
// the in-memory storage and directory backends, the scenario runner, the
// virtual-time simulator and the ML substrate, without reaching into
// internal packages.

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

// NewLocalStack wires an in-memory deployment: storage network, directory
// service and session.
func NewLocalStack(cfg *Config, replicas int) (*Session, *StorageNetwork, *DirectoryService, error) {
	return core.NewLocalStack(cfg, replicas)
}

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

// ---- Federated-learning driver -------------------------------------------

// Task drives a complete FL job (local SGD → protocol → global model).
type Task = core.Task

// RoundOptions configures one Task.RunRound; the zero value is an honest
// round with every trainer present.
type RoundOptions = core.RoundOptions

// NewTask builds a task over a session.
func NewTask(s *Session, m Model, locals map[string]*Dataset, sgd SGDConfig, initial []float64) (*Task, error) {
	return core.NewTask(s, m, locals, sgd, initial)
}

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

// DAGBlocks returns how many blocks (leaves plus internal nodes) a payload
// of size bytes makes when StorageNetwork.PutDAG chunks it at chunkSize.
func DAGBlocks(size int64, chunkSize int) int { return dag.Blocks(size, chunkSize) }

// StoreConfig selects a network's per-node block-store backend.
type StoreConfig = storage.StoreConfig

// Block-store backends.
const (
	BackendMem = storage.BackendMem
	BackendFS  = storage.BackendFS
)

// DirectoryService is the in-process directory service.
type DirectoryService = directory.Service

// ScenarioPlan is a parsed composable fault scenario: one grammar
// covering membership churn, storage faults, link degradation, network
// partitions, Byzantine uploads and late trainers (see ParseScenario).
type ScenarioPlan = scenario.Plan

// ParseScenario parses the comma-separated scenario grammar used by the
// iplssim -scenario flag, e.g.
// "depart:ipfs-03@iter1,partition:mainline|ipfs-01@iter2..3,
// corrupt:trainer-01@iter2,late:trainer-02@iter4".
func ParseScenario(s string) (*ScenarioPlan, error) { return scenario.Parse(s) }

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

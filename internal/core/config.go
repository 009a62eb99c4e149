// Package core implements the modified IPLS protocol that is the paper's
// contribution: decentralized federated learning over a content-addressed
// storage network (§III) with optional verifiable aggregation against
// malicious aggregators (§IV).
//
// The package provides two execution engines over the same protocol logic:
//
//   - Session: a concurrent runtime in which trainers and aggregators run
//     as goroutines against pluggable storage and directory backends
//     (in-memory or TCP), used by the examples, the integration tests and
//     the convergence experiments.
//   - Simulate: a virtual-time execution over the netsim discrete-event
//     network emulator, used to regenerate the paper's delay figures.
package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"ipls/internal/group"
	"ipls/internal/model"
	"ipls/internal/scalar"
)

// TaskSpec is what the task launcher (the bootstrapper, §II) declares about
// a federated-learning task. NewConfig expands it into the full wiring.
type TaskSpec struct {
	// TaskID names the task; it domain-separates the commitment
	// generators so different tasks never share parameters.
	TaskID string
	// ModelDim is the total number of model parameters.
	ModelDim int
	// Partitions is the number of segments the parameter vector is split
	// into (§II).
	Partitions int
	// Trainers lists trainer IDs.
	Trainers []string
	// AggregatorsPerPartition is |A_i|, the number of aggregators
	// responsible for each partition.
	AggregatorsPerPartition int
	// StorageNodes lists the IDs of the decentralized storage nodes.
	StorageNodes []string
	// ProvidersPerAggregator is |P_ij|: how many storage nodes serve as
	// merge-and-download providers for each aggregator. Zero disables
	// merge-and-download (gradients are downloaded one by one).
	ProvidersPerAggregator int
	// Verifiable enables Pedersen-commitment verification (§IV).
	Verifiable bool
	// Curve names the commitment curve (see group.ByName). Empty means
	// secp256r1-fast: P-256 on the same arithmetic as secp256r1, under the
	// generator domain every default deployment has committed with.
	Curve string
	// QuantShift is the fixed-point fractional bit count (0 = default).
	QuantShift uint
	// TTrain bounds the trainer upload phase and TSync the whole
	// iteration (the two schedule timestamps of §III-D). Zero values get
	// generous defaults.
	TTrain, TSync time.Duration
	// PollInterval is how often runtime actors poll the directory.
	PollInterval time.Duration
	// ScreenNorm, when positive, makes aggregators drop trainer gradients
	// whose L2 norm exceeds it — a basic defence against poisoning
	// trainers, which the paper explicitly leaves as future work
	// (§III-A). Screening is incompatible with Verifiable: dropping a
	// gradient that the directory has already folded into the partition
	// accumulator would make every honest update fail verification
	// (range proofs would be needed to reconcile the two; see §VI).
	ScreenNorm float64
}

// Config is the fully expanded wiring of a task, shared by every
// participant. The bootstrapper derives it deterministically from the
// TaskSpec, so all parties agree on assignments without communication.
type Config struct {
	TaskID     string
	Spec       model.Spec
	Trainers   []string
	Verifiable bool
	Curve      *group.Curve
	QuantShift uint

	// Aggregators maps partition -> ordered aggregator IDs (A_i).
	Aggregators map[int][]string
	// Assignment maps partition -> trainer -> aggregator (the T_ij sets).
	Assignment map[int]map[string]string
	// Providers maps aggregator ID -> its provider storage nodes (P_ij).
	Providers map[string][]string
	// StorageNodes lists all storage node IDs.
	StorageNodes []string
	// MergeAndDownload enables provider-side pre-aggregation.
	MergeAndDownload bool

	TTrain, TSync time.Duration
	PollInterval  time.Duration
	ScreenNorm    float64
}

// NewConfig validates a TaskSpec and deterministically expands it.
func NewConfig(ts TaskSpec) (*Config, error) {
	if ts.TaskID == "" {
		return nil, fmt.Errorf("core: task ID required")
	}
	spec := model.Spec{Dim: ts.ModelDim, Partitions: ts.Partitions}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(ts.Trainers) == 0 {
		return nil, fmt.Errorf("core: at least one trainer required")
	}
	seen := make(map[string]bool, len(ts.Trainers))
	for _, tr := range ts.Trainers {
		if tr == "" || seen[tr] {
			return nil, fmt.Errorf("core: trainer IDs must be unique and non-empty")
		}
		seen[tr] = true
	}
	if ts.AggregatorsPerPartition <= 0 {
		return nil, fmt.Errorf("core: need at least one aggregator per partition")
	}
	if ts.AggregatorsPerPartition > len(ts.Trainers) {
		return nil, fmt.Errorf("core: more aggregators per partition (%d) than trainers (%d)",
			ts.AggregatorsPerPartition, len(ts.Trainers))
	}
	if len(ts.StorageNodes) == 0 {
		return nil, fmt.Errorf("core: at least one storage node required")
	}
	if ts.ProvidersPerAggregator > len(ts.StorageNodes) {
		return nil, fmt.Errorf("core: %d providers per aggregator but only %d storage nodes",
			ts.ProvidersPerAggregator, len(ts.StorageNodes))
	}
	if ts.ScreenNorm < 0 {
		return nil, fmt.Errorf("core: screen norm must be non-negative, got %v", ts.ScreenNorm)
	}
	if ts.ScreenNorm > 0 && ts.Verifiable {
		return nil, fmt.Errorf("core: gradient screening is incompatible with verifiable aggregation " +
			"(a dropped gradient would invalidate the partition accumulator; see §VI)")
	}
	curveName := ts.Curve
	if curveName == "" {
		curveName = "secp256r1-fast"
	}
	curve, err := group.ByName(curveName)
	if err != nil {
		return nil, err
	}
	shift := ts.QuantShift
	if shift == 0 {
		shift = scalar.DefaultShift
	}
	tTrain := ts.TTrain
	if tTrain == 0 {
		tTrain = 30 * time.Second
	}
	tSync := ts.TSync
	if tSync == 0 {
		tSync = 60 * time.Second
	}
	poll := ts.PollInterval
	if poll == 0 {
		poll = 2 * time.Millisecond
	}

	cfg := &Config{
		TaskID:           ts.TaskID,
		Spec:             spec,
		Trainers:         append([]string(nil), ts.Trainers...),
		Verifiable:       ts.Verifiable,
		Curve:            curve,
		QuantShift:       shift,
		Aggregators:      make(map[int][]string, ts.Partitions),
		Assignment:       make(map[int]map[string]string, ts.Partitions),
		Providers:        make(map[string][]string),
		StorageNodes:     append([]string(nil), ts.StorageNodes...),
		MergeAndDownload: ts.ProvidersPerAggregator > 0,
		TTrain:           tTrain,
		TSync:            tSync,
		PollInterval:     poll,
		ScreenNorm:       ts.ScreenNorm,
	}

	providerCursor := 0
	for p := 0; p < ts.Partitions; p++ {
		aggs := make([]string, ts.AggregatorsPerPartition)
		for j := range aggs {
			aggs[j] = AggregatorID(p, j)
		}
		cfg.Aggregators[p] = aggs
		// Trainers round-robin over the partition's aggregators: the
		// T_ij are disjoint and cover T (§II).
		assign := make(map[string]string, len(ts.Trainers))
		for i, tr := range ts.Trainers {
			assign[tr] = aggs[i%len(aggs)]
		}
		cfg.Assignment[p] = assign
		// Providers round-robin over storage nodes.
		for _, agg := range aggs {
			if ts.ProvidersPerAggregator > 0 {
				provs := make([]string, ts.ProvidersPerAggregator)
				for k := range provs {
					provs[k] = ts.StorageNodes[providerCursor%len(ts.StorageNodes)]
					providerCursor++
				}
				cfg.Providers[agg] = provs
			}
		}
	}
	return cfg, nil
}

// AggregatorID names the j-th aggregator of partition p (A_pj in the
// paper's notation).
func AggregatorID(p, j int) string {
	return fmt.Sprintf("agg-p%d-%d", p, j)
}

// TrainersOf returns, in stable order, the trainer set T_ij assigned to an
// aggregator for a partition.
func (c *Config) TrainersOf(partition int, aggregator string) []string {
	var out []string
	for tr, agg := range c.Assignment[partition] {
		if agg == aggregator {
			out = append(out, tr)
		}
	}
	sort.Strings(out)
	return out
}

// UploadNode returns the storage node a trainer uploads its gradient for a
// partition to. With merge-and-download the trainer must use one of its
// aggregator's providers (§III-E); otherwise gradients spread over all
// storage nodes by a stable hash.
func (c *Config) UploadNode(partition int, trainer string) string {
	if c.MergeAndDownload {
		agg := c.Assignment[partition][trainer]
		provs := c.Providers[agg]
		if len(provs) > 0 {
			return provs[stableIndex(trainer, len(provs))]
		}
	}
	return c.StorageNodes[stableIndex(trainer+"/"+fmt.Sprint(partition), len(c.StorageNodes))]
}

// AggregatorHome returns the storage node an aggregator uses for its own
// uploads (partial and global updates).
func (c *Config) AggregatorHome(aggregator string) string {
	if provs := c.Providers[aggregator]; len(provs) > 0 {
		return provs[0]
	}
	return c.StorageNodes[stableIndex(aggregator, len(c.StorageNodes))]
}

// AllAggregators returns every aggregator ID with its partition, in
// partition-major order.
func (c *Config) AllAggregators() []AggregatorRef {
	var out []AggregatorRef
	for p := 0; p < c.Spec.Partitions; p++ {
		for _, a := range c.Aggregators[p] {
			out = append(out, AggregatorRef{Partition: p, ID: a})
		}
	}
	return out
}

// ParticipantIDs returns every trainer and aggregator ID, the set whose
// public keys an authenticated task registers with the directory.
func (c *Config) ParticipantIDs() []string {
	out := append([]string(nil), c.Trainers...)
	for _, ref := range c.AllAggregators() {
		out = append(out, ref.ID)
	}
	return out
}

// AggregatorRef identifies one aggregator role instance.
type AggregatorRef struct {
	Partition int
	ID        string
}

func stableIndex(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

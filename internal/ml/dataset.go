// Package ml is the machine-learning substrate for the federated-learning
// protocol: synthetic datasets, two differentiable classifiers (softmax
// regression and a one-hidden-layer MLP), local SGD for trainers, and a
// centralized FedAvg reference implementation used to demonstrate the
// paper's claim that the decentralized protocol converges identically to
// centralized FL (§V, "Convergence and Accuracy").
package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Dataset is a labelled classification dataset.
type Dataset struct {
	X       [][]float64
	Y       []int
	Classes int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// Blobs generates an isotropic-Gaussian-blobs dataset: one cluster per
// class with centers spread on a seeded random layout. It is linearly
// separable for small spread and increasingly hard as spread grows.
func Blobs(n, features, classes int, spread float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, features)
		for f := range centers[c] {
			centers[c][f] = rng.Float64()*8 - 4
		}
	}
	d := &Dataset{
		X:       make([][]float64, n),
		Y:       make([]int, n),
		Classes: classes,
	}
	for i := 0; i < n; i++ {
		c := i % classes
		x := make([]float64, features)
		for f := range x {
			x[f] = centers[c][f] + rng.NormFloat64()*spread
		}
		d.X[i] = x
		d.Y[i] = c
	}
	// Shuffle so class labels are not interleaved deterministically.
	rng.Shuffle(n, func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
	return d
}

// rings generates a non-linearly-separable dataset of concentric 2D rings,
// one radius band per class — a workload the MLP solves but softmax
// regression cannot; the MLP and optimizer tests train on it.
func rings(n, classes int, noise float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{
		X:       make([][]float64, n),
		Y:       make([]int, n),
		Classes: classes,
	}
	for i := 0; i < n; i++ {
		c := i % classes
		r := 1.0 + 1.5*float64(c) + rng.NormFloat64()*noise
		theta := rng.Float64() * 2 * math.Pi
		d.X[i] = []float64{r * math.Cos(theta), r * math.Sin(theta)}
		d.Y[i] = c
	}
	rng.Shuffle(n, func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
	return d
}

// Subset returns a view of the dataset restricted to the given indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	sub := &Dataset{
		X:       make([][]float64, len(idx)),
		Y:       make([]int, len(idx)),
		Classes: d.Classes,
	}
	for i, j := range idx {
		sub.X[i] = d.X[j]
		sub.Y[i] = d.Y[j]
	}
	return sub
}

// SplitIID partitions the dataset uniformly at random into parts shards of
// near-equal size: the IID federated setting.
func (d *Dataset) SplitIID(parts int, seed int64) ([]*Dataset, error) {
	if parts <= 0 || parts > d.Len() {
		return nil, fmt.Errorf("ml: cannot split %d examples into %d parts", d.Len(), parts)
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(d.Len())
	out := make([]*Dataset, parts)
	for p := 0; p < parts; p++ {
		lo := p * d.Len() / parts
		hi := (p + 1) * d.Len() / parts
		out[p] = d.Subset(idx[lo:hi])
	}
	return out, nil
}

// SplitLabelSkew partitions the dataset non-IID: examples are sorted by
// label, cut into parts·shardsPer shards, and each participant receives
// shardsPer random shards. With shardsPer=1 every trainer sees (mostly) a
// single class — the pathological non-IID federated setting.
func (d *Dataset) SplitLabelSkew(parts, shardsPer int, seed int64) ([]*Dataset, error) {
	total := parts * shardsPer
	if parts <= 0 || shardsPer <= 0 || total > d.Len() {
		return nil, fmt.Errorf("ml: cannot cut %d examples into %d shards", d.Len(), total)
	}
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return d.Y[idx[a]] < d.Y[idx[b]] })
	shards := make([][]int, total)
	for s := 0; s < total; s++ {
		lo := s * d.Len() / total
		hi := (s + 1) * d.Len() / total
		shards[s] = idx[lo:hi]
	}
	order := rng.Perm(total)
	out := make([]*Dataset, parts)
	for p := 0; p < parts; p++ {
		var mine []int
		for s := 0; s < shardsPer; s++ {
			mine = append(mine, shards[order[p*shardsPer+s]]...)
		}
		out[p] = d.Subset(mine)
	}
	return out, nil
}

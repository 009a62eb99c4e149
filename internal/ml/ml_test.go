package ml

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGradientCheck compares analytic gradients against central
// finite differences.
func numericalGradientCheck(t *testing.T, m Model, x [][]float64, y []int) {
	t.Helper()
	grad, _ := m.Gradient(x, y)
	params := m.Params()
	const h = 1e-5
	worst := 0.0
	for i := 0; i < len(params); i += 1 + len(params)/50 { // sample ~50 coords
		orig := params[i]
		params[i] = orig + h
		if err := m.SetParams(params); err != nil {
			t.Fatal(err)
		}
		_, lossPlus := m.Gradient(x, y)
		params[i] = orig - h
		if err := m.SetParams(params); err != nil {
			t.Fatal(err)
		}
		_, lossMinus := m.Gradient(x, y)
		params[i] = orig
		numeric := (lossPlus - lossMinus) / (2 * h)
		diff := math.Abs(numeric - grad[i])
		scale := math.Max(1, math.Abs(numeric)+math.Abs(grad[i]))
		if diff/scale > worst {
			worst = diff / scale
		}
	}
	if err := m.SetParams(params); err != nil {
		t.Fatal(err)
	}
	if worst > 1e-4 {
		t.Fatalf("gradient check failed: worst relative error %v", worst)
	}
}

func smallBatch(d *Dataset, n int) ([][]float64, []int) {
	if n > d.Len() {
		n = d.Len()
	}
	return d.X[:n], d.Y[:n]
}

func TestLogisticGradientCheck(t *testing.T) {
	d := Blobs(40, 3, 3, 1.0, 1)
	m := NewLogistic(3, 3)
	// Non-zero params make the check meaningful.
	rng := rand.New(rand.NewSource(2))
	p := m.Params()
	for i := range p {
		p[i] = rng.NormFloat64() * 0.1
	}
	if err := m.SetParams(p); err != nil {
		t.Fatal(err)
	}
	x, y := smallBatch(d, 20)
	numericalGradientCheck(t, m, x, y)
}

func TestMLPGradientCheck(t *testing.T) {
	d := Blobs(40, 4, 3, 1.0, 3)
	m := NewMLP(4, 8, 3, 4)
	x, y := smallBatch(d, 20)
	numericalGradientCheck(t, m, x, y)
}

func TestLogisticLearnsBlobs(t *testing.T) {
	d := Blobs(300, 4, 3, 0.7, 5)
	m := NewLogistic(4, 3)
	global := m.Params()
	cfg := SGDConfig{LearningRate: 0.5, Epochs: 30, BatchSize: 32, Seed: 6}
	delta, _, err := LocalDelta(m, d, global, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trained := make([]float64, len(global))
	for i := range trained {
		trained[i] = global[i] + delta[i]
	}
	if err := m.SetParams(trained); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, d); acc < 0.9 {
		t.Fatalf("logistic accuracy %v < 0.9 on separable blobs", acc)
	}
}

func TestMLPSolvesRingsWhereLogisticCannot(t *testing.T) {
	d := rings(400, 2, 0.15, 7)
	cfg := SGDConfig{LearningRate: 0.3, Epochs: 120, BatchSize: 32, Seed: 8}

	logistic := NewLogistic(2, 2)
	lg := logistic.Params()
	ld, _, err := LocalDelta(logistic, d, lg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lg {
		lg[i] += ld[i]
	}
	if err := logistic.SetParams(lg); err != nil {
		t.Fatal(err)
	}
	logAcc := Accuracy(logistic, d)

	mlp := NewMLP(2, 16, 2, 9)
	mg := mlp.Params()
	md, _, err := LocalDelta(mlp, d, mg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mg {
		mg[i] += md[i]
	}
	if err := mlp.SetParams(mg); err != nil {
		t.Fatal(err)
	}
	mlpAcc := Accuracy(mlp, d)

	if mlpAcc < 0.9 {
		t.Fatalf("MLP accuracy %v < 0.9 on rings", mlpAcc)
	}
	if logAcc > mlpAcc-0.1 {
		t.Fatalf("rings should separate models: logistic %v, mlp %v", logAcc, mlpAcc)
	}
}

func TestLocalDeltaDeterministic(t *testing.T) {
	d := Blobs(100, 3, 2, 1.0, 10)
	m := NewMLP(3, 5, 2, 11)
	global := m.Params()
	cfg := SGDConfig{LearningRate: 0.1, Epochs: 3, BatchSize: 16, Seed: 12}
	d1, l1, err := LocalDelta(m, d, global, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, l2, err := LocalDelta(m, d, global, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Fatal("losses differ across identical runs")
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("delta %d differs across identical runs", i)
		}
	}
}

func TestFedAvgRoundImprovesAccuracy(t *testing.T) {
	d := Blobs(400, 4, 4, 0.8, 13)
	locals, err := d.SplitIID(8, 14)
	if err != nil {
		t.Fatal(err)
	}
	m := NewLogistic(4, 4)
	global := m.Params()
	cfg := SGDConfig{LearningRate: 0.3, Epochs: 2, BatchSize: 16}
	var lastLoss float64
	for round := 0; round < 10; round++ {
		roundCfg := cfg
		roundCfg.Seed = int64(round)
		next, loss, err := FedAvgRound(m, global, locals, roundCfg)
		if err != nil {
			t.Fatal(err)
		}
		global = next
		lastLoss = loss
	}
	if err := m.SetParams(global); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, d); acc < 0.85 {
		t.Fatalf("FedAvg accuracy %v < 0.85, loss %v", acc, lastLoss)
	}
}

func TestSplitIIDProperties(t *testing.T) {
	d := Blobs(100, 2, 2, 1.0, 15)
	parts, err := d.SplitIID(7, 16)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		if p.Len() < 100/7 || p.Len() > 100/7+1 {
			t.Fatalf("unbalanced part of size %d", p.Len())
		}
		total += p.Len()
	}
	if total != 100 {
		t.Fatalf("split loses examples: %d", total)
	}
	if _, err := d.SplitIID(0, 1); err == nil {
		t.Fatal("expected error for 0 parts")
	}
	if _, err := d.SplitIID(101, 1); err == nil {
		t.Fatal("expected error for too many parts")
	}
}

func TestSplitLabelSkewIsSkewed(t *testing.T) {
	d := Blobs(400, 2, 4, 1.0, 17)
	parts, err := d.SplitLabelSkew(8, 1, 18)
	if err != nil {
		t.Fatal(err)
	}
	// With one shard each, a participant should be dominated by few labels.
	for i, p := range parts {
		seen := make(map[int]bool)
		for _, y := range p.Y {
			seen[y] = true
		}
		if len(seen) > 2 {
			t.Fatalf("participant %d sees %d classes; label skew too weak: %v", i, len(seen), seen)
		}
	}
	if _, err := d.SplitLabelSkew(0, 1, 1); err == nil {
		t.Fatal("expected error for invalid parts")
	}
	if _, err := d.SplitLabelSkew(500, 1, 1); err == nil {
		t.Fatal("expected error for too many shards")
	}
}

func TestSetParamsValidation(t *testing.T) {
	if err := NewLogistic(2, 2).SetParams(make([]float64, 3)); err == nil {
		t.Fatal("logistic should reject wrong-length params")
	}
	if err := NewMLP(2, 3, 2, 1).SetParams(make([]float64, 3)); err == nil {
		t.Fatal("mlp should reject wrong-length params")
	}
}

func TestMomentumAcceleratesConvergence(t *testing.T) {
	d := rings(400, 2, 0.15, 30)
	run := func(momentum float64) float64 {
		m := NewMLP(2, 16, 2, 31)
		_, loss, err := LocalDelta(m, d, m.Params(), SGDConfig{
			LearningRate: 0.03, Epochs: 8, BatchSize: 32, Momentum: momentum, Seed: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}
	plain := run(0)
	withMomentum := run(0.9)
	if withMomentum >= plain {
		t.Fatalf("momentum should reduce the training loss faster: %v vs %v", withMomentum, plain)
	}
}

func TestWeightDecayShrinksParameters(t *testing.T) {
	d := Blobs(200, 4, 2, 1.0, 33)
	norm := func(decay float64) float64 {
		m := NewLogistic(4, 2)
		g := m.Params()
		delta, _, err := LocalDelta(m, d, g, SGDConfig{
			LearningRate: 0.3, Epochs: 30, BatchSize: 32, WeightDecay: decay, Seed: 34,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := range delta {
			v := g[i] + delta[i]
			sum += v * v
		}
		return math.Sqrt(sum)
	}
	if decayed, plain := norm(0.1), norm(0); decayed >= plain {
		t.Fatalf("weight decay should shrink the solution: %v vs %v", decayed, plain)
	}
}

func TestSGDConfigValidatesNewFields(t *testing.T) {
	d := Blobs(10, 2, 2, 1.0, 35)
	m := NewLogistic(2, 2)
	g := m.Params()
	if _, _, err := LocalDelta(m, d, g, SGDConfig{LearningRate: 0.1, Epochs: 1, Momentum: -0.1}); err == nil {
		t.Fatal("negative momentum accepted")
	}
	if _, _, err := LocalDelta(m, d, g, SGDConfig{LearningRate: 0.1, Epochs: 1, Momentum: 1}); err == nil {
		t.Fatal("momentum 1 accepted")
	}
	if _, _, err := LocalDelta(m, d, g, SGDConfig{LearningRate: 0.1, Epochs: 1, WeightDecay: -1}); err == nil {
		t.Fatal("negative weight decay accepted")
	}
}

func TestLocalDeltaValidation(t *testing.T) {
	d := Blobs(10, 2, 2, 1.0, 19)
	m := NewLogistic(2, 2)
	g := m.Params()
	if _, _, err := LocalDelta(m, d, g, SGDConfig{LearningRate: 0, Epochs: 1}); err == nil {
		t.Fatal("expected learning rate error")
	}
	if _, _, err := LocalDelta(m, d, g, SGDConfig{LearningRate: 0.1, Epochs: 0}); err == nil {
		t.Fatal("expected epochs error")
	}
	if _, _, err := LocalDelta(m, d, g, SGDConfig{LearningRate: 0.1, Epochs: 1, BatchSize: -1}); err == nil {
		t.Fatal("expected batch size error")
	}
	empty := &Dataset{Classes: 2}
	if _, _, err := LocalDelta(m, empty, g, SGDConfig{LearningRate: 0.1, Epochs: 1}); err == nil {
		t.Fatal("expected empty dataset error")
	}
	if _, _, err := FedAvgRound(m, g, nil, SGDConfig{LearningRate: 0.1, Epochs: 1}); err == nil {
		t.Fatal("expected no-participants error")
	}
}

func TestAccuracyAndLossEdgeCases(t *testing.T) {
	m := NewLogistic(2, 2)
	empty := &Dataset{Classes: 2}
	if Accuracy(m, empty) != 0 || Loss(m, empty) != 0 {
		t.Fatal("empty dataset metrics should be zero")
	}
	d := Blobs(10, 2, 2, 0.5, 20)
	if l := Loss(m, d); math.Abs(l-math.Log(2)) > 1e-9 {
		t.Fatalf("uniform model loss = %v, want ln(2)", l)
	}
}

func TestDatasetHelpers(t *testing.T) {
	d := Blobs(60, 3, 3, 1.0, 21)
	sub := d.Subset([]int{0, 5, 10})
	if sub.Len() != 3 || sub.Classes != 3 {
		t.Fatal("Subset wrong shape")
	}
}

func TestParticipantSeedDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for round := 0; round < 5; round++ {
		for p := 0; p < 20; p++ {
			s := ParticipantSeed(int64(round), p)
			if seen[s] {
				t.Fatalf("seed collision at round %d participant %d", round, p)
			}
			seen[s] = true
		}
	}
}

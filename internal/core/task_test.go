package core

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"ipls/internal/ml"
)

// newMLTask builds a small end-to-end FL task over an in-memory stack.
func newMLTask(t *testing.T, verifiable bool, aggsPerPartition int, nonIID bool) (*Task, *ml.Dataset) {
	t.Helper()
	const trainers = 8
	m := ml.NewLogistic(4, 4) // dim = 4*(4+1) = 20
	data := ml.Blobs(480, 4, 4, 0.8, 77)

	names := make([]string, trainers)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	ts := TaskSpec{
		TaskID:                  "ml-task",
		ModelDim:                m.Dim(),
		Partitions:              4,
		Trainers:                names,
		AggregatorsPerPartition: aggsPerPartition,
		StorageNodes:            []string{"s0", "s1", "s2", "s3"},
		ProvidersPerAggregator:  2,
		Verifiable:              verifiable,
		TTrain:                  3 * time.Second,
		TSync:                   3 * time.Second,
		PollInterval:            time.Millisecond,
	}
	cfg, err := NewConfig(ts)
	if err != nil {
		t.Fatal(err)
	}
	sess, _, _, err := NewLocalStack(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var splits []*ml.Dataset
	if nonIID {
		splits, err = data.SplitLabelSkew(trainers, 2, 78)
	} else {
		splits, err = data.SplitIID(trainers, 78)
	}
	if err != nil {
		t.Fatal(err)
	}
	locals := make(map[string]*ml.Dataset, trainers)
	for i, name := range names {
		locals[name] = splits[i]
	}
	sgd := ml.SGDConfig{LearningRate: 0.3, Epochs: 2, BatchSize: 16}
	task, err := NewTask(sess, m, locals, sgd, m.Params())
	if err != nil {
		t.Fatal(err)
	}
	return task, data
}

func TestTaskConvergesIID(t *testing.T) {
	task, data := newMLTask(t, false, 1, false)
	accStart, _, err := task.Evaluate(data)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		metrics, _, err := task.RunRound(context.Background(), RoundOptions{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !metrics.Applied {
			t.Fatalf("round %d not applied", round)
		}
	}
	accEnd, _, err := task.Evaluate(data)
	if err != nil {
		t.Fatal(err)
	}
	if accEnd < 0.85 || accEnd <= accStart {
		t.Fatalf("decentralized FL did not converge: %v -> %v", accStart, accEnd)
	}
	if task.Round() != 8 {
		t.Fatalf("Round() = %d", task.Round())
	}
}

func TestDecentralizedMatchesCentralizedFedAvg(t *testing.T) {
	// §V "Convergence and Accuracy": the decentralized aggregation is
	// exactly FedAvg. The only deviation is fixed-point quantization, so
	// parameters must agree to within the quantization granularity.
	task, _ := newMLTask(t, true, 2, true)
	for round := 0; round < 3; round++ {
		want, err := task.CentralizedRound(round)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := task.RunRound(context.Background(), RoundOptions{}); err != nil {
			t.Fatal(err)
		}
		got := task.Global()
		bound := math.Ldexp(1, -20) // 2^-24 per value, ~16x slack
		for i := range got {
			if math.Abs(got[i]-want[i]) > bound {
				t.Fatalf("round %d param %d: decentralized %v vs centralized %v",
					round, i, got[i], want[i])
			}
		}
	}
}

func TestTaskBlockedRoundDoesNotAdvanceModel(t *testing.T) {
	task, _ := newMLTask(t, true, 1, false)
	before := task.Global()
	evil := AggregatorID(0, 0)
	metrics, res, err := task.RunRound(context.Background(),
		RoundOptions{Behaviors: map[string]Behavior{evil: BehaviorForgeUpdate}})
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Applied {
		t.Fatal("blocked round must not apply")
	}
	if !metrics.Detected || !res.Detected() {
		t.Fatal("forged update not detected")
	}
	after := task.Global()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("global model changed in a blocked round")
		}
	}
	// The next (honest) round proceeds normally.
	metrics, _, err = task.RunRound(context.Background(), RoundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !metrics.Applied {
		t.Fatal("honest round after a blocked one should apply")
	}
}

func TestTaskNonIIDConverges(t *testing.T) {
	task, data := newMLTask(t, false, 2, true)
	for round := 0; round < 10; round++ {
		if _, _, err := task.RunRound(context.Background(), RoundOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	acc, _, err := task.Evaluate(data)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.75 {
		t.Fatalf("non-IID accuracy %v < 0.75", acc)
	}
}

func TestNewTaskValidation(t *testing.T) {
	task, _ := newMLTask(t, false, 1, false)
	sess := task.session
	m := ml.NewLogistic(4, 4)
	locals := task.locals
	sgd := task.sgd
	if _, err := NewTask(sess, ml.NewLogistic(2, 2), locals, sgd, make([]float64, 6)); err == nil {
		t.Fatal("expected dim mismatch error")
	}
	if _, err := NewTask(sess, m, locals, sgd, make([]float64, 3)); err == nil {
		t.Fatal("expected initial length error")
	}
	if _, err := NewTask(sess, m, map[string]*ml.Dataset{}, sgd, m.Params()); err == nil {
		t.Fatal("expected missing-data error")
	}
}

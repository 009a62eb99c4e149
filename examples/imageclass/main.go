// Image-classification-style federated learning: 16 trainers with
// label-skewed (non-IID) local data train an MLP collaboratively over the
// decentralized protocol, with verifiable aggregation enabled. The run
// also tracks the centralized FedAvg reference every round to show the
// aggregates are identical up to fixed-point quantization — the paper's
// "convergence and accuracy are exactly the same as traditional FL" claim.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"ipls"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		trainers = 16
		rounds   = 12
		classes  = 4
		features = 16 // 4x4 "images"
	)
	// A synthetic image-like workload: clustered points in a
	// 16-dimensional pixel space, non-linearly separable enough to need
	// the MLP.
	data := ipls.Blobs(1600, features, classes, 1.6, 99)
	mlp := ipls.NewMLP(features, 12, classes, 100)

	names := make([]string, trainers)
	for i := range names {
		names[i] = fmt.Sprintf("edge-device-%02d", i)
	}
	cfg, err := ipls.NewConfig(ipls.TaskSpec{
		TaskID:                  "imageclass",
		ModelDim:                mlp.Dim(),
		Partitions:              4,
		Trainers:                names,
		AggregatorsPerPartition: 2,
		StorageNodes:            []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"},
		ProvidersPerAggregator:  3,
		Verifiable:              true,
		TTrain:                  time.Minute,
		TSync:                   5 * time.Second,
		PollInterval:            time.Millisecond,
	})
	if err != nil {
		return err
	}
	sess, _, _, err := ipls.NewLocalStack(cfg, 2)
	if err != nil {
		return err
	}

	// Pathological non-IID split: each edge device holds shards of at
	// most two classes.
	splits, err := data.SplitLabelSkew(trainers, 2, 101)
	if err != nil {
		return err
	}
	locals := make(map[string]*ipls.Dataset, trainers)
	for i, name := range names {
		locals[name] = splits[i]
	}
	task, err := ipls.NewTask(sess, mlp, locals,
		ipls.SGDConfig{LearningRate: 0.15, Epochs: 3, BatchSize: 16}, mlp.Params())
	if err != nil {
		return err
	}

	fmt.Printf("non-IID federated MLP: %d params, %d partitions, %d trainers\n",
		mlp.Dim(), cfg.Spec.Partitions, trainers)
	fmt.Printf("%-8s %10s %10s %18s\n", "round", "loss", "accuracy", "|dec - central|")
	for r := 0; r < rounds; r++ {
		central, err := task.CentralizedRound(r)
		if err != nil {
			return err
		}
		metrics, _, err := task.RunRound(context.Background(), ipls.RoundOptions{})
		if err != nil {
			return err
		}
		worst := 0.0
		for i, g := range task.Global() {
			if d := math.Abs(g - central[i]); d > worst {
				worst = d
			}
		}
		acc, _, err := task.Evaluate(data)
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %10.4f %10.3f %18.2e\n", metrics.Round, metrics.Loss, acc, worst)
	}
	acc, loss, err := task.Evaluate(data)
	if err != nil {
		return err
	}
	fmt.Printf("final: accuracy %.3f, loss %.4f after %d rounds\n", acc, loss, task.Round())
	return nil
}

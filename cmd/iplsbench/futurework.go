package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"time"

	"ipls/internal/core"
	"ipls/internal/group"
	"ipls/internal/scalar"
	"ipls/internal/storage"
)

// dirLoad quantifies the §VI directory-load reductions: request batching
// (one round trip per trainer instead of one per partition) and spreading
// the directory's partitions across hosts. It runs one iteration on one
// directory and derives each host's load from the per-partition counters,
// mapping partitions to hosts by a task-salted FNV hash.
func dirLoad() error {
	fmt.Println("== Directory load reduction (§VI) ==")
	const (
		trainers   = 16
		partitions = 8
	)
	names := make([]string, trainers)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
	}
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID:                  "dirload",
		ModelDim:                partitions * 8,
		Partitions:              partitions,
		Trainers:                names,
		AggregatorsPerPartition: 1,
		StorageNodes:            []string{"s0", "s1", "s2", "s3"},
		TTrain:                  10 * time.Second,
		TSync:                   10 * time.Second,
		PollInterval:            time.Millisecond,
	})
	if err != nil {
		return err
	}
	sess, _, dir, err := core.NewLocalStack(cfg, 1)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(6))
	deltas := make(map[string][]float64)
	for _, tr := range names {
		d := make([]float64, partitions*8)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		deltas[tr] = d
	}
	if _, err := sess.RunIteration(context.Background(), 0, deltas, nil); err != nil {
		return err
	}
	total, perPart := dir.Stats(), dir.PartitionStats()

	fmt.Printf("%-8s %10s %10s %10s %26s\n",
		"hosts", "records", "requests", "lookups", "busiest host ops (share)")
	for _, hosts := range []int{1, 2, 4, 8} {
		load := make([]int, hosts)
		for p, st := range perPart {
			h := fnv.New32a()
			fmt.Fprintf(h, "%s/%d", cfg.TaskID, p)
			load[int(h.Sum32()%uint32(hosts))] += st.Publishes + st.Lookups
		}
		busiest := slices.Max(load)
		fmt.Printf("%-8d %10d %10d %10d %19d (%3.0f%%)\n", hosts, total.Publishes, total.Requests,
			total.Lookups, busiest, 100*float64(busiest)/float64(total.Publishes+total.Lookups))
	}
	fmt.Printf("without batching a trainer would issue %d publish requests per iteration; with it, 1\n", partitions)
	fmt.Println("host ops = records published plus queries served on the host's partitions")
	return nil
}

// placement compares ring-successor and rendezvous replica placement —
// §VI's "uniform allocation of gradients to nodes ... based on the hash of
// the gradients and the nodes id's".
func placement() error {
	fmt.Println("== Replica placement (§VI uniform allocation) ==")
	const (
		nodes    = 8
		blocks   = 800
		replicas = 2
	)
	for _, policy := range []struct {
		name string
		p    storage.Placement
	}{
		{"ring-successor", storage.PlacementRing},
		{"rendezvous", storage.PlacementRendezvous},
	} {
		field := scalar.NewField(group.Secp256k1().N)
		net := storage.NewNetwork(field, replicas)
		for i := 0; i < nodes; i++ {
			net.AddNode(fmt.Sprintf("node-%02d", i))
		}
		net.SetPlacement(policy.p)
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < blocks; i++ {
			data := make([]byte, 32)
			rng.Read(data)
			// All trainers upload to the same primary (the provider
			// hotspot scenario).
			if _, err := net.Put(context.Background(), "node-00", data); err != nil {
				return err
			}
		}
		fmt.Printf("%-16s replica counts:", policy.name)
		minC, maxC := 1<<30, 0
		for i := 1; i < nodes; i++ {
			nd, err := net.Node(fmt.Sprintf("node-%02d", i))
			if err != nil {
				return err
			}
			c := nd.StoredBlocks()
			fmt.Printf(" %4d", c)
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		fmt.Printf("   (min %d, max %d)\n", minC, maxC)
	}
	fmt.Println("rendezvous hashing spreads replicas uniformly and makes the replica set")
	fmt.Println("unpredictable to colluding storage nodes; ring placement concentrates them")
	return nil
}

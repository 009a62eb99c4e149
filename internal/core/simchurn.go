package core

import (
	"fmt"
	"strconv"
	"strings"

	"ipls/internal/scenario"
)

// simChurn is a SimConfig.Churn event list resolved against the
// simulation's node-naming scheme. The sim models a single iteration, so
// event windows are ignored: departures and crashes hold for the
// whole run, and a trainer rejoin means "present, but must bootstrap
// the checkpoint from storage before uploading".
type simChurn struct {
	downStores      map[int]bool
	crashedAggs     map[[2]int]bool // (partition, j)
	crashedTrainers map[int]bool
	rejoinTrainers  map[int]bool
}

func newSimChurn(cfg SimConfig) (*simChurn, error) {
	sc := &simChurn{
		downStores:      make(map[int]bool),
		crashedAggs:     make(map[[2]int]bool),
		crashedTrainers: make(map[int]bool),
		rejoinTrainers:  make(map[int]bool),
	}
	for _, ev := range cfg.Churn {
		if ev.Kind != scenario.Depart && ev.Kind != scenario.Crash && ev.Kind != scenario.Rejoin {
			return nil, fmt.Errorf("core: sim churn: %v: not a membership event", ev)
		}
		switch {
		case strings.HasPrefix(ev.Node, "ipfs-"):
			i, err := strconv.Atoi(strings.TrimPrefix(ev.Node, "ipfs-"))
			if err != nil || i < 0 || i >= cfg.StorageNodes {
				return nil, fmt.Errorf("core: sim churn: unknown storage node %q", ev.Node)
			}
			if ev.Kind == scenario.Rejoin {
				return nil, fmt.Errorf("core: sim churn: %v: storage rejoin is not modeled within a single iteration", ev)
			}
			if cfg.Direct {
				return nil, fmt.Errorf("core: sim churn: %v: direct mode has no storage network", ev)
			}
			// Departed and crashed storage both hold for the whole iteration.
			sc.downStores[i] = true
		case strings.HasPrefix(ev.Node, "agg-p"):
			p, j, ok := parseSimAgg(ev.Node)
			if !ok || p >= cfg.Partitions || j >= cfg.AggregatorsPerPartition {
				return nil, fmt.Errorf("core: sim churn: unknown aggregator %q", ev.Node)
			}
			if ev.Kind != scenario.Crash {
				return nil, fmt.Errorf("core: sim churn: %v: aggregators only crash within a single iteration", ev)
			}
			sc.crashedAggs[[2]int{p, j}] = true
		case strings.HasPrefix(ev.Node, "trainer-"):
			t, err := strconv.Atoi(strings.TrimPrefix(ev.Node, "trainer-"))
			if err != nil || t < 0 || t >= cfg.Trainers {
				return nil, fmt.Errorf("core: sim churn: unknown trainer %q", ev.Node)
			}
			switch ev.Kind {
			case scenario.Crash:
				sc.crashedTrainers[t] = true
			case scenario.Rejoin:
				if cfg.Direct {
					return nil, fmt.Errorf("core: sim churn: %v: checkpoint bootstrap needs the storage network", ev)
				}
				sc.rejoinTrainers[t] = true
			default:
				return nil, fmt.Errorf("core: sim churn: %v: trainers crash or rejoin, they do not depart", ev)
			}
		default:
			return nil, fmt.Errorf("core: sim churn: unknown participant %q", ev.Node)
		}
	}
	// A trainer that crashes and rejoins within the plan is present but
	// pays the bootstrap download.
	for t := range sc.rejoinTrainers {
		delete(sc.crashedTrainers, t)
	}
	return sc, nil
}

// parseSimAgg decodes "agg-p<partition>-<j>".
func parseSimAgg(name string) (p, j int, ok bool) {
	parts := strings.SplitN(strings.TrimPrefix(name, "agg-p"), "-", 2)
	if len(parts) != 2 {
		return 0, 0, false
	}
	p, err1 := strconv.Atoi(parts[0])
	j, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || p < 0 || j < 0 {
		return 0, 0, false
	}
	return p, j, true
}

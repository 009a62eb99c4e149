package directory

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"ipls/internal/pedersen"
)

// The directory service is the one (trusted but not infallible) component
// the bootstrapper hosts. Snapshot/Restore give it crash recovery: the
// full state — records, commitment accumulators, assignments, schedules,
// strikes, quarantine and expunge tombstones — serializes to a
// deterministic JSON document that a restarted bootstrapper can restore
// and continue the iteration from.

// snapshot is the serialized directory state. Strikes, Quarantined and
// Expunged are omitted when empty, so a directory that never expunged
// serializes exactly as it did before they were persisted.
type snapshot struct {
	Records       []Record          `json:"records"`
	Gradients     []gradientLog     `json:"gradients"`
	AccPartition  []partitionAcc    `json:"accPartition"`
	AccAggregator []aggregatorAcc   `json:"accAggregator"`
	Assignments   []assignmentEntry `json:"assignments"`
	Finals        []Record          `json:"finals"`
	Schedules     []scheduleEntry   `json:"schedules"`
	Strikes       []strikeEntry     `json:"strikes,omitempty"`
	Quarantined   []quarantineEntry `json:"quarantined,omitempty"`
	Expunged      []expungedEntry   `json:"expunged,omitempty"`
	Stats         Stats             `json:"stats"`
}

type gradientLog struct {
	Iter      int      `json:"iter"`
	Partition int      `json:"partition"`
	Recs      []Record `json:"recs"`
}

type partitionAcc struct {
	Iter       int    `json:"iter"`
	Partition  int    `json:"partition"`
	Commitment []byte `json:"commitment"`
}

type aggregatorAcc struct {
	Iter       int    `json:"iter"`
	Partition  int    `json:"partition"`
	Aggregator string `json:"aggregator"`
	Commitment []byte `json:"commitment"`
	Count      int    `json:"count"`
}

type assignmentEntry struct {
	Partition  int    `json:"partition"`
	Trainer    string `json:"trainer"`
	Aggregator string `json:"aggregator"`
}

type scheduleEntry struct {
	Iter   int       `json:"iter"`
	TTrain time.Time `json:"tTrain"`
}

type strikeEntry struct {
	Trainer string `json:"trainer"`
	Count   int    `json:"count"`
}

type quarantineEntry struct {
	Trainer  string `json:"trainer"`
	FromIter int    `json:"fromIter"`
}

type expungedEntry struct {
	Iter      int `json:"iter"`
	Partition int `json:"partition"`
	Count     int `json:"count"`
}

// Snapshot serializes the full directory state as one atomic cut: it
// holds every partition lock, in lock order, while it reads.
func (s *Service) Snapshot() ([]byte, error) {
	s.partsMu.Lock()
	defer s.partsMu.Unlock()
	idx := s.partitionsLocked()
	for _, p := range idx {
		pt := s.parts[p]
		pt.mu.Lock()
		defer pt.mu.Unlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	var snap snapshot
	snap.Stats = s.stats
	for _, p := range idx {
		pt := s.parts[p]
		snap.Stats.add(pt.stats)
		for _, rec := range pt.records {
			snap.Records = append(snap.Records, rec)
		}
		for iter, recs := range pt.gradients {
			snap.Gradients = append(snap.Gradients, gradientLog{Iter: iter, Partition: p, Recs: recs})
		}
		for iter, acc := range pt.accPartition {
			snap.AccPartition = append(snap.AccPartition, partitionAcc{Iter: iter, Partition: p, Commitment: acc})
		}
		for key, acc := range pt.accAggregator {
			snap.AccAggregator = append(snap.AccAggregator, aggregatorAcc{
				Iter: key.iter, Partition: p, Aggregator: key.agg,
				Commitment: acc, Count: pt.gradCount[key],
			})
		}
		for agg, trainers := range pt.trainers {
			for _, tr := range trainers {
				snap.Assignments = append(snap.Assignments, assignmentEntry{Partition: p, Trainer: tr, Aggregator: agg})
			}
		}
		for _, rec := range pt.finals {
			snap.Finals = append(snap.Finals, rec)
		}
		for iter, n := range pt.expunged {
			snap.Expunged = append(snap.Expunged, expungedEntry{Iter: iter, Partition: p, Count: n})
		}
	}
	slices.SortFunc(snap.Records, recordCmp)
	slices.SortFunc(snap.Finals, recordCmp)
	slices.SortFunc(snap.Gradients, func(a, b gradientLog) int {
		return cmp.Or(cmp.Compare(a.Iter, b.Iter), cmp.Compare(a.Partition, b.Partition))
	})
	slices.SortFunc(snap.AccPartition, func(a, b partitionAcc) int {
		return cmp.Or(cmp.Compare(a.Iter, b.Iter), cmp.Compare(a.Partition, b.Partition))
	})
	slices.SortFunc(snap.AccAggregator, func(a, b aggregatorAcc) int {
		return cmp.Or(cmp.Compare(a.Iter, b.Iter), cmp.Compare(a.Partition, b.Partition), cmp.Compare(a.Aggregator, b.Aggregator))
	})
	slices.SortFunc(snap.Assignments, func(a, b assignmentEntry) int {
		return cmp.Or(cmp.Compare(a.Partition, b.Partition), cmp.Compare(a.Aggregator, b.Aggregator), cmp.Compare(a.Trainer, b.Trainer))
	})
	slices.SortFunc(snap.Expunged, func(a, b expungedEntry) int {
		return cmp.Or(cmp.Compare(a.Iter, b.Iter), cmp.Compare(a.Partition, b.Partition))
	})
	for iter, deadline := range s.schedules {
		snap.Schedules = append(snap.Schedules, scheduleEntry{Iter: iter, TTrain: deadline})
	}
	slices.SortFunc(snap.Schedules, func(a, b scheduleEntry) int { return cmp.Compare(a.Iter, b.Iter) })
	for tr, n := range s.strikes {
		snap.Strikes = append(snap.Strikes, strikeEntry{Trainer: tr, Count: n})
	}
	slices.SortFunc(snap.Strikes, func(a, b strikeEntry) int { return cmp.Compare(a.Trainer, b.Trainer) })
	for tr, from := range s.quarantined {
		snap.Quarantined = append(snap.Quarantined, quarantineEntry{Trainer: tr, FromIter: from})
	}
	slices.SortFunc(snap.Quarantined, func(a, b quarantineEntry) int { return cmp.Compare(a.Trainer, b.Trainer) })
	return json.Marshal(snap)
}

func recordCmp(a, b Record) int {
	return cmp.Or(cmp.Compare(a.Addr.Iter, b.Addr.Iter), cmp.Compare(a.Addr.Partition, b.Addr.Partition),
		cmp.Compare(a.Addr.Type, b.Addr.Type), cmp.Compare(a.Addr.Uploader, b.Addr.Uploader))
}

// Restore reconstructs a directory service from a snapshot. The commitment
// parameters and block fetcher are environment, not state, and must be
// supplied again (they are deterministic from the task config).
func Restore(data []byte, params *pedersen.Params, fetcher BlockFetcher) (*Service, error) {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("directory: restore: %w", err)
	}
	s := New(params, fetcher)
	for _, rec := range snap.Records {
		s.part(rec.Addr.Partition).records[rec.Addr] = rec
	}
	for _, g := range snap.Gradients {
		s.part(g.Partition).gradients[g.Iter] = g.Recs
	}
	for _, acc := range snap.AccPartition {
		s.part(acc.Partition).accPartition[acc.Iter] = pedersen.Commitment(acc.Commitment)
	}
	for _, acc := range snap.AccAggregator {
		pt, key := s.part(acc.Partition), iterAgg{acc.Iter, acc.Aggregator}
		pt.accAggregator[key] = pedersen.Commitment(acc.Commitment)
		pt.gradCount[key] = acc.Count
	}
	for _, a := range snap.Assignments {
		s.part(a.Partition).assign(a.Trainer, a.Aggregator)
	}
	for _, rec := range snap.Finals {
		s.part(rec.Addr.Partition).finals[rec.Addr.Iter] = rec
	}
	for _, e := range snap.Expunged {
		s.part(e.Partition).expunged[e.Iter] = e.Count
	}
	for _, sched := range snap.Schedules {
		// JSON parsing accepts deadlines (a +24:00 offset) that it cannot
		// write back; refuse them here rather than at the next save.
		if _, err := sched.TTrain.MarshalJSON(); err != nil {
			return nil, fmt.Errorf("directory: restore: iter %d deadline: %w", sched.Iter, err)
		}
		s.schedules[sched.Iter] = sched.TTrain
	}
	for _, st := range snap.Strikes {
		s.strikes[st.Trainer] = st.Count
	}
	for _, q := range snap.Quarantined {
		s.quarantined[q.Trainer] = q.FromIter
	}
	s.stats = snap.Stats
	return s, nil
}

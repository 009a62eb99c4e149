package storage

import (
	"context"
	"sort"
	"strconv"
	"time"

	"ipls/internal/cid"
	"ipls/internal/obs"
)

// Garbage collection of blocks from superseded iterations. DeleteAll is the
// per-CID cleanup the session layer already drives; GC is the sweep that
// makes the durable backend's footprint track the protocol's working set:
// walk the provider records (the index of everything the network is still
// advertising), keep what the caller pins — current-iteration records and
// checkpoint DAG roots — and reclaim the rest. The paper motivates exactly
// this: "gradients and updates [are] only needed for a short period of
// time" (§VI), so a disk-backed node that never collects would grow without
// bound across rounds.

// GCReport summarizes one collection sweep.
type GCReport struct {
	// Scanned counts the provider-indexed blocks examined.
	Scanned int
	// Kept counts blocks protected by the keep set.
	Kept int
	// Collected counts blocks deleted from at least one node.
	Collected int
	// BytesFreed totals the payload bytes reclaimed, summed across every
	// replica that dropped a copy.
	BytesFreed int64
}

// GC deletes every provider-indexed block whose CID is not in keep,
// withdrawing its records, and also sweeps unreferenced blocks sitting in
// node stores without records (e.g. merge-fetch caches from collected
// iterations). Deletions count into storage_gc_blocks_total /
// storage_gc_bytes_total, and the sweep is recorded as a "gc" span when a
// sink is installed. The sweep is deterministic: CID order, node order.
func (n *Network) GC(ctx context.Context, keep map[cid.CID]bool) (GCReport, error) {
	start := time.Now()
	report, err := n.collect(ctx, keep)
	n.mu.Lock()
	seq := n.repairSeq
	n.repairSeq++
	n.mu.Unlock()
	if sink := n.spanSink(); sink != nil {
		sp := obs.Span{
			Name:  "gc",
			Actor: "network",
			Context: obs.SpanContext{
				Session: "storage",
				Iter:    seq,
				SpanID:  obs.NewSpanID(),
			},
			Start: start,
			End:   time.Now(),
			Bytes: report.BytesFreed,
			Attrs: map[string]string{
				"scanned":   strconv.Itoa(report.Scanned),
				"kept":      strconv.Itoa(report.Kept),
				"collected": strconv.Itoa(report.Collected),
			},
		}
		if err != nil {
			sp.Attrs["error"] = err.Error()
		}
		sink.EmitSpan(sp)
	}
	return report, err
}

// collect sweeps the candidates as of its start. n.mu is held to list them;
// each one is then deleted the way DeleteAll deletes, under its own lock.
func (n *Network) collect(ctx context.Context, keep map[cid.CID]bool) (GCReport, error) {
	var report GCReport
	n.mu.Lock()
	// Candidate set: everything advertised plus everything actually held
	// (a node can hold unadvertised blocks after a merge remote-fetch whose
	// record was withdrawn).
	candidates := make(map[cid.CID]bool, len(n.providers))
	for c := range n.providers {
		candidates[c] = true
	}
	nodes := make([]*Node, 0, len(n.order))
	for _, id := range n.order {
		nd := n.nodes[id]
		nodes = append(nodes, nd)
		keys, err := nd.store.Keys(context.Background())
		if err != nil {
			continue
		}
		for _, c := range keys {
			candidates[c] = true
		}
	}
	gcBlocks, gcBytes := n.gcBlocks, n.gcBytes
	n.mu.Unlock()
	cids := make([]cid.CID, 0, len(candidates))
	for c := range candidates {
		cids = append(cids, c)
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })

	for _, c := range cids {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		report.Scanned++
		if keep[c] {
			report.Kept++
			continue
		}
		dropped, freed := n.deleteEverywhere(c, nodes, true)
		report.BytesFreed += freed
		gcBytes.Add(freed)
		if dropped {
			report.Collected++
			gcBlocks.Inc()
		}
	}
	return report, nil
}

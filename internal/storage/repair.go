package storage

import (
	"context"
	"sort"
	"strconv"
	"time"

	"ipls/internal/cid"
	"ipls/internal/obs"
)

// Anti-entropy repair for the storage network. Replication gives the
// paper's availability (§VI), but a departed or crashed provider silently
// erodes the replication factor: nothing re-replicates on its own. A
// RepairScan is the maintenance pass an IPFS pinning cluster would run —
// walk the provider records, prune the stale ones, and copy every
// under-replicated block onto fresh live nodes chosen by the same
// rendezvous placement new Puts use.

// RepairReport summarizes one RepairScan.
type RepairReport struct {
	// Scanned counts the provider-indexed blocks examined.
	Scanned int
	// UnderReplicated counts blocks found below their replication target
	// (before repair).
	UnderReplicated int
	// Repaired counts replica copies created by the scan.
	Repaired int
	// Lost counts blocks with no live holder at all — unrepairable until a
	// holder recovers.
	Lost int
	// Remaining counts blocks still below target after the scan (includes
	// Lost; 0 means the replication factor is fully restored).
	Remaining int
}

// RepairScan walks every known block, withdraws provider records that
// point at departed or down nodes (stale placement), and re-replicates
// blocks whose live replica count fell below target onto live nodes
// ranked by rendezvous score. The target per block is min(replicas,
// live nodes). The scan is deterministic: blocks are visited in CID
// order and copies go to the highest-scoring non-holders.
//
// Each repaired copy increments repair_blocks_total; the closing census
// of still-under-replicated blocks is published as the
// under_replicated_blocks gauge, and the whole pass is recorded as a
// "repair" span when a span sink is installed.
func (n *Network) RepairScan(ctx context.Context) (RepairReport, error) {
	start := time.Now()
	n.mu.Lock()
	report, err := n.repairLocked(ctx)
	sink := n.spanSink()
	seq := n.repairSeq
	n.repairSeq++
	n.mu.Unlock()
	if sink != nil {
		sp := obs.Span{
			Name:  "repair",
			Actor: "network",
			Context: obs.SpanContext{
				Session: "storage",
				Iter:    seq,
				SpanID:  obs.NewSpanID(),
			},
			Start: start,
			End:   time.Now(),
			Attrs: map[string]string{
				"scanned":          strconv.Itoa(report.Scanned),
				"under_replicated": strconv.Itoa(report.UnderReplicated),
				"repaired":         strconv.Itoa(report.Repaired),
				"lost":             strconv.Itoa(report.Lost),
			},
		}
		if err != nil {
			sp.Attrs["error"] = err.Error()
		}
		sink.EmitSpan(sp)
	}
	return report, err
}

func (n *Network) repairLocked(ctx context.Context) (RepairReport, error) {
	var report RepairReport
	live := make([]string, 0, len(n.order))
	for _, id := range n.order {
		if n.nodes[id].unavailable() {
			continue
		}
		live = append(live, id)
	}
	target := n.replicas
	if target > len(live) {
		target = len(live)
	}
	cids := make([]cid.CID, 0, len(n.providers))
	for c := range n.providers {
		cids = append(cids, c)
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })

	for _, c := range cids {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		report.Scanned++
		// Prune stale records: a provider that departed (or lost the
		// block) will never serve it again; a down or partitioned provider
		// cannot serve it now — Recover and Heal re-announce on return.
		for id := range n.providers[c] {
			nd, ok := n.nodes[id]
			if !ok || nd.unavailable() {
				n.withdrawLocked(id, c)
				continue
			}
			if holds, _ := nd.store.Has(context.Background(), c); !holds {
				n.withdrawLocked(id, c)
			}
		}
		holders := make([]string, 0, len(n.providers[c]))
		for id := range n.providers[c] {
			holders = append(holders, id)
		}
		sort.Strings(holders)
		if len(holders) >= target {
			continue
		}
		report.UnderReplicated++
		if len(holders) == 0 {
			report.Lost++
			report.Remaining++
			continue
		}
		// Copy from the first holder whose backend can actually serve the
		// block and whose copy hashes to c; one with a rotted, unreadable or
		// tampered copy is skipped.
		var data []byte
		for _, id := range holders {
			src := n.nodes[id]
			d, rerr := src.store.Get(context.Background(), c)
			if rerr != nil {
				src.noteStoreErr(rerr)
				continue
			}
			if cid.Verify(d, c) {
				data = d
				break
			}
		}
		if data == nil {
			report.Lost++
			report.Remaining++
			continue
		}
		isHolder := make(map[string]bool, len(holders))
		for _, id := range holders {
			isHolder[id] = true
		}
		// Rank fresh destinations exactly as Put's rendezvous placement
		// would, so repaired placement matches what a re-Put would choose.
		type scored struct {
			id    string
			score uint64
		}
		cands := make([]scored, 0, len(live))
		for _, id := range live {
			if isHolder[id] {
				continue
			}
			cands = append(cands, scored{id: id, score: rendezvousScore(c, id)})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].score != cands[j].score {
				return cands[i].score > cands[j].score
			}
			return cands[i].id < cands[j].id
		})
		have := len(holders)
		for _, cand := range cands {
			if have >= target {
				break
			}
			dst := n.nodes[cand.id]
			if perr := dst.store.PutKnown(context.Background(), c, data); perr != nil {
				dst.noteStoreErr(perr)
				continue
			}
			n.announceLocked(cand.id, c)
			dst.metrics.Load().blocksReplicated.Inc()
			n.repairCtr.Inc()
			report.Repaired++
			have++
		}
		if have < target {
			report.Remaining++
		}
	}
	n.underRepl.Set(float64(report.Remaining))
	return report, nil
}

// UnderReplicated returns the CIDs whose live replica count is below the
// network's target, in sorted order — the census a RepairScan would try
// to repair. A clean network returns an empty slice.
func (n *Network) UnderReplicated() []cid.CID {
	n.mu.Lock()
	defer n.mu.Unlock()
	liveNodes := 0
	for _, nd := range n.nodes {
		if !nd.unavailable() {
			liveNodes++
		}
	}
	target := n.replicas
	if target > liveNodes {
		target = liveNodes
	}
	var out []cid.CID
	for c := range n.providers {
		if n.liveReplicasLocked(c) < target {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

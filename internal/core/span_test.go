package core

import (
	"context"
	"testing"
	"time"

	"ipls/internal/obs"
)

// TestIterationSpanTree is the acceptance check for causal span tracing:
// run an iteration on an in-memory stack, reconstruct the span tree, and
// verify the cross-role causality — the aggregate span links the uploader
// spans it folded in, and each storage-side merge span is parented under
// the aggregator's merge_download span that triggered it.
func TestIterationSpanTree(t *testing.T) {
	sess, net, _ := testStack(t, func(ts *TaskSpec) {
		ts.ProvidersPerAggregator = 2 // exercise merge-and-download
	})
	col := obs.NewSpanCollector(0)
	sess.SetSpans(col)
	net.SetSpans(col)

	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 7)
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("incomplete partitions: %v", res.Incomplete)
	}

	tree := obs.BuildTree(col.Spans(), sess.cfg.TaskID, 0)
	if tree.Size() == 0 {
		t.Fatal("no spans collected")
	}
	if tree.Orphans != 0 {
		t.Fatalf("%d orphaned spans — broken parent propagation", tree.Orphans)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Span.Name != "iteration" {
		t.Fatalf("want a single iteration root, got %d roots", len(tree.Roots))
	}

	// Uploader span IDs, for the causal-link check below.
	uploads := make(map[string]bool)
	first := map[string]*obs.SpanNode{} // first node of each name, pre-order
	tree.Walk(func(n *obs.SpanNode, _ int) {
		if n.Span.Name == "upload" {
			uploads[n.Span.Context.SpanID] = true
		}
		if first[n.Span.Name] == nil {
			first[n.Span.Name] = n
		}
	})
	if len(uploads) != len(sess.cfg.Trainers) {
		t.Fatalf("upload spans = %d, want %d", len(uploads), len(sess.cfg.Trainers))
	}

	agg := first["aggregate"]
	if agg == nil {
		t.Fatal("no aggregate span")
	}
	if len(agg.Span.Links) != len(sess.cfg.Trainers) {
		t.Fatalf("aggregate links = %d, want %d (one per uploader)", len(agg.Span.Links), len(sess.cfg.Trainers))
	}
	for _, l := range agg.Span.Links {
		if !uploads[l.SpanID] {
			t.Fatalf("aggregate links unknown span %q — causal propagation through the directory record failed", l.SpanID)
		}
	}

	// Every storage-side merge span must hang under a merge_download span:
	// the context crossed the storage API (and in the distributed case, the
	// RPC) intact.
	var merges, mergeDownloads int
	tree.Walk(func(n *obs.SpanNode, _ int) {
		switch n.Span.Name {
		case "merge_download":
			mergeDownloads++
			for _, c := range n.Children {
				if c.Span.Name != "merge" {
					t.Fatalf("merge_download child = %q", c.Span.Name)
				}
			}
		case "merge":
			merges++
		}
	})
	if mergeDownloads == 0 || merges == 0 {
		t.Fatalf("merge_download=%d merge=%d — merge path not traced", mergeDownloads, merges)
	}
	if md := first["merge_download"]; len(md.Children) == 0 {
		t.Fatal("merge span not parented under merge_download — span context lost crossing the storage boundary")
	}

	// Every span closed: a positive interval inside the iteration root.
	root := tree.Roots[0].Span
	tree.Walk(func(n *obs.SpanNode, _ int) {
		if n.Span.End.Before(n.Span.Start) {
			t.Fatalf("span %s has End before Start", n.Span.Name)
		}
		if n.Span.Start.Before(root.Start) || n.Span.End.After(root.End) {
			t.Fatalf("span %s [%v,%v] outside iteration [%v,%v]",
				n.Span.Name, n.Span.Start, n.Span.End, root.Start, root.End)
		}
	})

	// The breakdown's phases tile the iteration latency exactly.
	b := obs.Breakdown(col.Spans())
	var phaseSum time.Duration
	for _, p := range b.Phases {
		phaseSum += p.Duration
	}
	if phaseSum != b.Latency {
		t.Fatalf("phases sum to %v, latency %v", phaseSum, b.Latency)
	}
}

// TestSpansDisabledNoOverhead verifies the nil-scope no-op path: with no
// sink attached nothing is emitted and iterations still work.
func TestSpansDisabledNoOverhead(t *testing.T) {
	sess, _, _ := testStack(t, nil)
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 3)
	if _, err := sess.RunIteration(context.Background(), 0, deltas, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRoleSpansRootPerRole checks the distributed shape: role entry
// points called directly (as iplsd does) root their own trees instead of
// sharing an iteration root, and the trees still merge by (session, iter).
func TestRoleSpansRootPerRole(t *testing.T) {
	sess, _, _ := testStack(t, nil)
	col := obs.NewSpanCollector(0)
	sess.SetSpans(col)
	deltas, _ := randomDeltas(sess.cfg.Trainers, 24, 5)

	for _, tr := range sess.cfg.Trainers {
		if err := sess.TrainerUpload(context.Background(), tr, 0, deltas[tr]); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < sess.cfg.Spec.Partitions; p++ {
		if _, err := sess.AggregatorRun(context.Background(), AggregatorID(p, 0), p, 0, BehaviorHonest); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.TrainerCollect(context.Background(), 0); err != nil {
		t.Fatal(err)
	}

	tree := obs.BuildTree(col.Spans(), sess.cfg.TaskID, 0)
	if tree.Orphans != 0 {
		t.Fatalf("%d orphans", tree.Orphans)
	}
	var roots []string
	for _, r := range tree.Roots {
		roots = append(roots, r.Span.Name)
	}
	wantRoots := len(sess.cfg.Trainers) + sess.cfg.Spec.Partitions + 1
	if len(roots) != wantRoots {
		t.Fatalf("roots = %v, want %d (uploads + aggregates + collect)", roots, wantRoots)
	}
	// Aggregates still link the uploads across the root boundary.
	first := map[string]*obs.SpanNode{} // first node of each name, pre-order
	tree.Walk(func(n *obs.SpanNode, _ int) {
		if first[n.Span.Name] == nil {
			first[n.Span.Name] = n
		}
	})
	agg := first["aggregate"]
	if agg == nil || len(agg.Span.Links) != len(sess.cfg.Trainers) {
		t.Fatalf("distributed aggregate links missing: %+v", agg)
	}
}

// TestNilScopeEventAllocatesNothing pins the cost of an event with spans
// off: the nil scope returns before touching its arguments.
func TestNilScopeEventAllocatesNothing(t *testing.T) {
	var sc *spanScope
	trainer, n := "t3", int64(4096)
	if allocs := testing.AllocsPerRun(1000, func() { sc.event("screened_out", n, trainer) }); allocs != 0 {
		t.Fatalf("nil-scope event allocates %v times", allocs)
	}
}

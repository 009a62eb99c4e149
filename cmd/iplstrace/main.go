// Command iplstrace analyzes span traces recorded by iplssim/iplsd
// (-span-out): it folds each iteration's span tree into a critical path
// and per-phase latency breakdown — the shape of the paper's §V latency
// figures, computed from a recorded run — and can export the spans in
// Chrome trace-event format for Perfetto / chrome://tracing.
//
// Several input files merge into one stream, so per-node span files from
// a distributed run can be analyzed together:
//
//	iplstrace run-node1.spans run-node2.spans
//	iplstrace -json run.spans
//	iplstrace -chrome trace.json run.spans
//	iplstrace -tree run.spans               span trees, each span's events indented under it
//	iplstrace -resources run.spans          per-phase cpu/alloc + actor outliers
//	iplstrace -resources -top 10 run.spans
//
// With -baseline the folded breakdowns are compared against a scenario
// budget recorded by `iplsbench -baseline-out` instead of printed,
// exiting non-zero with a per-phase delta table on regression:
//
//	iplstrace -baseline sim.json -scenario fig1-merge-p4 run.spans
//	iplstrace -baseline sim.json -tolerance 0.05 run.spans
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"ipls/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "iplstrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("iplstrace", flag.ContinueOnError)
	var (
		jsonOut   = fs.Bool("json", false, "emit the per-iteration breakdowns as JSON instead of a table")
		chrome    = fs.String("chrome", "", "write the spans in Chrome trace-event format to this file (open in Perfetto)")
		tree      = fs.Bool("tree", false, "print each iteration's span tree instead of the breakdown")
		resources = fs.Bool("resources", false, "print per-phase CPU/alloc attribution and per-actor hottest/slowest tables instead of the latency breakdown")
		top       = fs.Int("top", 5, "number of actors in the -resources hottest/slowest tables")
		baseline  = fs.String("baseline", "", "compare the folded breakdowns against this baseline JSON (from iplsbench -baseline-out), exiting non-zero on regression")
		scenario  = fs.String("scenario", "", "scenario name inside -baseline to compare against (optional when the baseline has exactly one)")
		tolerance = fs.Float64("tolerance", 0, "allowed relative regression per phase metric when checking -baseline (0.05 = 5%)")
	)
	fs.SetOutput(out)
	fs.Usage = func() {
		fmt.Fprintln(out, "usage: iplstrace [flags] span-file.jsonl [more-files...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("no span files given")
	}
	if *baseline != "" && (*jsonOut || *tree || *resources) {
		return fmt.Errorf("-baseline is incompatible with -json/-tree/-resources")
	}
	if *baseline == "" && (*scenario != "" || *tolerance != 0) {
		return fmt.Errorf("-scenario/-tolerance only apply with -baseline")
	}

	var spans []obs.Span
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		part, err := obs.ReadSpanJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, part...)
	}
	if len(spans) == 0 {
		return fmt.Errorf("no spans in input")
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, spans); err != nil {
			f.Close()
			return fmt.Errorf("chrome export: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "chrome trace: %d spans written to %s\n", len(spans), *chrome)
	}

	if *tree {
		printTrees(out, spans)
		return nil
	}

	breakdowns := obs.BreakdownTrace(spans)
	if *resources {
		printResources(out, spans, breakdowns, *top)
		return nil
	}
	if *baseline != "" {
		return checkBaseline(out, breakdowns, *baseline, *scenario, *tolerance)
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(breakdowns)
	}
	printBreakdowns(out, breakdowns)
	return nil
}

// checkBaseline folds the breakdowns into a scenario budget and compares
// it against one scenario of a recorded baseline, reusing the same
// comparator and delta-table renderer as the iplsbench gate.
func checkBaseline(out io.Writer, breakdowns []obs.IterationBreakdown, path, scenario string, tolerance float64) error {
	if tolerance < 0 {
		return fmt.Errorf("-tolerance must be non-negative, got %v", tolerance)
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	base, err := obs.ReadBaseline(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if scenario == "" {
		if len(base.Scenarios) != 1 {
			names := make([]string, 0, len(base.Scenarios))
			for name := range base.Scenarios {
				names = append(names, name)
			}
			sort.Strings(names)
			return fmt.Errorf("baseline has %d scenarios (%s): pick one with -scenario",
				len(base.Scenarios), strings.Join(names, ", "))
		}
		for name := range base.Scenarios {
			scenario = name
		}
	}
	budget, ok := base.Scenarios[scenario]
	if !ok {
		return fmt.Errorf("baseline has no scenario %q", scenario)
	}
	report := obs.CompareBudget(scenario, budget, obs.NewScenarioBudget(breakdowns), tolerance)
	obs.WriteBudgetReport(out, report)
	if v := report.Violations(); len(v) > 0 {
		return fmt.Errorf("%d budget violation(s): %s", len(v), strings.Join(v, "; "))
	}
	return nil
}

// printBreakdowns renders the per-iteration phase tables. Phase durations
// sum to the iteration latency by construction (untraced stretches are
// charged to the "(untraced)" phase).
func printBreakdowns(out io.Writer, breakdowns []obs.IterationBreakdown) {
	for i, b := range breakdowns {
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "%s iter %d: %d spans, latency %s\n",
			orUnnamed(b.Session), b.Iter, b.Spans, b.Latency.Round(time.Microsecond))
		fmt.Fprintf(out, "  %-18s %12s %7s %5s %12s\n", "phase", "time", "frac", "segs", "bytes")
		for _, p := range b.Phases {
			fmt.Fprintf(out, "  %-18s %12s %6.1f%% %5d %12d\n",
				p.Phase, p.Duration.Round(time.Microsecond), p.Fraction*100, p.Segments, p.Bytes)
		}
	}
}

// printResources renders the resource-attribution view: per-iteration
// phase tables with the cpu/alloc columns, then cross-trace per-actor
// roll-ups — the hottest actors by CPU charged to their spans and the
// slowest by span time. This is the single-file cousin of the cluster
// scoreboard: same question ("where do cycles and bytes go, and who is
// the outlier"), answered from a recorded span stream.
func printResources(out io.Writer, spans []obs.Span, breakdowns []obs.IterationBreakdown, top int) {
	for i, b := range breakdowns {
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "%s iter %d: %d spans, latency %s\n",
			orUnnamed(b.Session), b.Iter, b.Spans, b.Latency.Round(time.Microsecond))
		fmt.Fprintf(out, "  %-18s %12s %7s %12s %12s\n", "phase", "time", "frac", "cpu", "alloc")
		for _, p := range b.Phases {
			fmt.Fprintf(out, "  %-18s %12s %6.1f%% %12s %11dB\n",
				p.Phase, p.Duration.Round(time.Microsecond), p.Fraction*100,
				time.Duration(p.CPUNanos).Round(time.Microsecond), p.AllocBytes)
		}
	}

	type actorAgg struct {
		cpu   int64
		alloc int64
		busy  time.Duration
	}
	actors := make(map[string]*actorAgg)
	for _, s := range spans {
		name := s.Actor
		if name == "" {
			name = "(unattributed)"
		}
		a := actors[name]
		if a == nil {
			a = &actorAgg{}
			actors[name] = a
		}
		a.cpu += s.CPUNanos
		a.alloc += s.AllocBytes
		a.busy += s.Duration()
	}
	names := make([]string, 0, len(actors))
	for n := range actors {
		names = append(names, n)
	}
	table := func(title, valueHeader string, value func(a *actorAgg) int64, render func(a *actorAgg) string) {
		sort.Slice(names, func(i, j int) bool {
			vi, vj := value(actors[names[i]]), value(actors[names[j]])
			if vi != vj {
				return vi > vj
			}
			return names[i] < names[j]
		})
		fmt.Fprintf(out, "\n%s\n  %-24s %14s\n", title, "actor", valueHeader)
		for i, n := range names {
			if top > 0 && i >= top {
				break
			}
			fmt.Fprintf(out, "  %-24s %14s\n", n, render(actors[n]))
		}
	}
	table(fmt.Sprintf("hottest actors (top %d by span CPU)", top), "cpu",
		func(a *actorAgg) int64 { return a.cpu },
		func(a *actorAgg) string { return time.Duration(a.cpu).Round(time.Microsecond).String() })
	table(fmt.Sprintf("slowest actors (top %d by span time)", top), "busy",
		func(a *actorAgg) int64 { return int64(a.busy) },
		func(a *actorAgg) string { return a.busy.Round(time.Microsecond).String() })
	table(fmt.Sprintf("heaviest actors (top %d by span alloc)", top), "alloc",
		func(a *actorAgg) int64 { return a.alloc },
		func(a *actorAgg) string { return fmt.Sprintf("%dB", a.alloc) })
}

// printTrees renders each trace's span forest with indentation.
func printTrees(out io.Writer, spans []obs.Span) {
	for i, k := range obs.TraceKeys(spans) {
		if i > 0 {
			fmt.Fprintln(out)
		}
		t := obs.BuildTree(spans, k.Session, k.Iter)
		fmt.Fprintf(out, "%s iter %d: %d spans", orUnnamed(k.Session), k.Iter, t.Size())
		if t.Orphans > 0 {
			fmt.Fprintf(out, " (%d orphaned)", t.Orphans)
		}
		fmt.Fprintln(out)
		t.Walk(func(n *obs.SpanNode, depth int) {
			line := fmt.Sprintf("%s%s", strings.Repeat("  ", depth+1), n.Span.Name)
			if n.Span.Actor != "" {
				line += " [" + n.Span.Actor + "]"
			}
			line += " " + n.Span.Duration().Round(time.Microsecond).String()
			if n.Span.Bytes > 0 {
				line += fmt.Sprintf(" %dB", n.Span.Bytes)
			}
			if len(n.Span.Links) > 0 {
				line += fmt.Sprintf(" links=%d", len(n.Span.Links))
			}
			fmt.Fprintln(out, line)
			for _, e := range n.Span.Events {
				fmt.Fprintln(out, strings.Repeat("  ", depth+2)+eventLine(n.Span, e))
			}
		})
	}
}

// eventLine renders a span event as its offset into the span, its name,
// and its bytes and detail when set.
func eventLine(s obs.Span, e obs.SpanEvent) string {
	line := "@+" + e.Time.Sub(s.Start).Round(time.Microsecond).String() + " " + e.Name
	if e.Bytes > 0 {
		line += fmt.Sprintf(" %dB", e.Bytes)
	}
	if e.Detail != "" {
		line += " " + e.Detail
	}
	return line
}

func orUnnamed(session string) string {
	if session == "" {
		return "(unnamed)"
	}
	return session
}

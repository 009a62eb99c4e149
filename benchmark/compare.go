package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of comparing one end-to-end metric of one workload.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictSkipped    = "skipped"
)

// judge compares a baseline reading a with a candidate reading b of one
// end-to-end metric. The candidate is worse when its median is worse than
// the baseline's by more than the metric's bound (any rise at all for the
// two metrics whose bound is 0); it is unresolved when either side's own
// run-to-run spread exceeds the bound, because then the medians cannot
// tell a regression from noise. delta is the relative change of the
// median, positive when b is worse.
func judge(spec metricSpec, a, b summary) (delta float64, verdict string) {
	diff := b.Median - a.Median
	if spec.Better == "higher" {
		diff = -diff
	}
	if a.Median != 0 {
		delta = diff / a.Median
	}
	switch {
	case spec.Bound == 0:
		if diff > 0 {
			return delta, verdictWorse
		}
		return delta, verdictOK
	case a.spread() > spec.Bound || b.spread() > spec.Bound:
		return delta, verdictUnresolved
	case delta > spec.Bound:
		return delta, verdictWorse
	}
	return delta, verdictOK
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var led ledger
	if err := json.Unmarshal(data, &led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(led.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads (is it a ledger written by `go run ./benchmark`?)", path)
	}
	return &led, nil
}

// compareMain prints, per workload and end-to-end metric, both medians,
// the relative change, the bound and the verdict, and exits non-zero
// unless every verdict is ok (or skipped).
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare BASELINE.json CANDIDATE.json")
		return 2
	}
	a, err := readLedger(args[0])
	if err == nil {
		var b *ledger
		if b, err = readLedger(args[1]); err == nil {
			if !compareLedgers(a, b, stdout) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(stderr, "benchmark compare:", err)
	return 2
}

func compareLedgers(a, b *ledger, w io.Writer) (allOK bool) {
	if a.Fingerprint != b.Fingerprint {
		fmt.Fprintf(w, "baseline:  %+v\ncandidate: %+v\n", a.Fingerprint, b.Fingerprint)
	}
	allOK = true
	fmt.Fprintf(w, "%-13s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "baseline", "candidate", "delta", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Workload.Name == wa.Workload.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-13s missing from the candidate\n", wa.Workload.Name)
			allOK = false
			continue
		}
		if wa.Workload != wb.Workload {
			fmt.Fprintf(w, "%-13s shapes differ: %+v vs %+v\n", wa.Workload.Name, wa.Workload, wb.Workload)
			allOK = false
			continue
		}
		for _, spec := range endToEnd {
			sa, oka := wa.EndToEnd[spec.Name]
			sb, okb := wb.EndToEnd[spec.Name]
			delta, verdict := 0.0, verdictSkipped
			switch {
			case !oka || !okb:
				verdict = verdictUnresolved // a metric with no reading
			case spec.Name == "agg_err_max" && wa.Seed != wb.Seed:
				// the quantization error depends on the deltas drawn
			default:
				delta, verdict = judge(spec, sa, sb)
			}
			if verdict == verdictWorse || verdict == verdictUnresolved {
				allOK = false
			}
			fmt.Fprintf(w, "%-13s %-20s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				wa.Workload.Name, spec.Name, sa.Median, sb.Median, 100*delta, 100*spec.Bound, verdict)
		}
	}
	return allOK
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"ipls/internal/obs"
)

// fingerprint says what was measured and where, so that two result files
// are only compared knowingly.
type fingerprint struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func newFingerprint() fingerprint {
	return fingerprint{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// commit is the revision the binary was built from: stamped by `go build`,
// asked of git under `go run` (which does not stamp), unknown outside a
// repository.
func commit() string {
	if bi := obs.ReadBuildInfo(); bi.Revision != "" {
		if bi.Modified {
			return bi.Revision + "+dirty"
		}
		return bi.Revision
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// summary condenses repeated readings of one metric.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(vals []float64) summary {
	s := sortedCopy(vals)
	return summary{Median: quantile(s, 1, 2), Q1: quantile(s, 1, 4), Q3: quantile(s, 3, 4)}
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// workloadResult is the result file of one workload.
type workloadResult struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Workload    shape       `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	Rounds      int         `json:"rounds,omitempty"`
	// Runs holds the end-to-end metrics of each timed run; EndToEnd
	// condenses them.
	Runs     []map[string]float64 `json:"runs"`
	EndToEnd map[string]summary   `json:"end_to_end"`
	// PerLayer holds the traced run's metrics; null marks a metric the
	// workload cannot measure.
	PerLayer  map[string]*float64 `json:"per_layer"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Errors    []string            `json:"errors,omitempty"`
}

// ledger is the combined result of one invocation.
type ledger struct {
	Fingerprint fingerprint      `json:"fingerprint"`
	Workloads   []workloadResult `json:"workloads"`
}

func (wr *workloadResult) count(rep *report) {
	wr.Attempted += rep.Attempted
	wr.Failed += rep.Failed
	if rep.Error != "" {
		wr.Errors = append(wr.Errors, rep.Error)
	}
}

func (wr *workloadResult) addRun(rep *report) {
	wr.count(rep)
	run := map[string]float64{}
	for name, v := range rep.Metrics {
		if v.Value != nil {
			run[name] = *v.Value
		}
	}
	wr.Runs = append(wr.Runs, run)
}

func (wr *workloadResult) addTrace(rep *report) {
	wr.count(rep)
	wr.PerLayer = map[string]*float64{}
	for name, v := range rep.Metrics {
		wr.PerLayer[name] = v.Value
	}
}

func (wr *workloadResult) summarize() {
	wr.EndToEnd = map[string]summary{}
	for _, spec := range endToEnd {
		var vals []float64
		for _, run := range wr.Runs {
			if v, ok := run[spec.Name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			wr.EndToEnd[spec.Name] = summarize(vals)
		}
	}
}

// print lists every metric by name with its unit: the end-to-end ones
// (median and quartiles when the run was repeated), then the per-layer ones.
func (wr *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "-- end to end (%d timed run(s), %d rounds attempted, %d failed)\n", len(wr.Runs), wr.Attempted, wr.Failed)
	for _, spec := range endToEnd {
		s, ok := wr.EndToEnd[spec.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "  %-30s %14s %s\n", spec.Name, "null", spec.Unit)
		case len(wr.Runs) > 1:
			fmt.Fprintf(w, "  %-30s %14.6g %-6s [q1 %.6g  q3 %.6g  spread %.1f%%]\n", spec.Name, s.Median, spec.Unit, s.Q1, s.Q3, 100*s.spread())
		default:
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", spec.Name, s.Median, spec.Unit)
		}
	}
	fmt.Fprintln(w, "-- per layer (traced run and layer replay)")
	for _, spec := range perLayer {
		if v := wr.PerLayer[spec.Name]; v != nil {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", spec.Name, *v, spec.Unit)
		} else {
			fmt.Fprintf(w, "  %-30s %14s %s\n", spec.Name, "null", spec.Unit)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

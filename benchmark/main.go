// Command benchmark measures the real core.Session round by wall clock:
// four workloads, ten end-to-end metrics each, and under them the cost of
// every layer the round is built from. See README.md.
//
//	go run ./benchmark                     every workload, timed then traced
//	go run ./benchmark -workload verif_k1  one workload
//	go run ./benchmark -repeat 5 -ledger A.json
//	go run ./benchmark compare A.json B.json
//
// With both -workload and -trace the program is a single measuring process
// that prints one JSON object as its last line (the form BENCHMARK.json's
// command is run in); otherwise it runs such a process per workload and
// phase, one at a time, and prints and stores what they report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runSeconds is the length of the timed window, BENCHMARK.json's run_seconds.
const runSeconds = 24

// traceOverheadCeiling is the most the timing decorators may slow a round,
// in percent, before the per-layer numbers stop describing the timed run.
const traceOverheadCeiling = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   int
	rounds   int
	dim      int
	outDir   string
	ledger   string
	full     bool
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all four, one after the other)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the per-trainer deltas")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "length of the timed window")
	fs.IntVar(&o.trace, "trace", -1, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics, in this process")
	fs.IntVar(&o.repeat, "repeat", 1, "timed runs per workload; medians and quartiles are reported")
	fs.IntVar(&o.rounds, "rounds", 0, "time exactly this many rounds instead of -seconds")
	fs.IntVar(&o.dim, "dim", 0, "override the workloads' ModelDim (smoke tests and quick looks; the shape is recorded in the result)")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "results"), "directory for result files, span dumps and fs-backend blocks")
	fs.StringVar(&o.ledger, "ledger", "", "file for the combined result of this invocation (default <out>/ledger.json)")
	fs.BoolVar(&o.full, "full", false, "with -trace: also report the metrics BENCHMARK.json leaves out")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
	}
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		fmt.Fprintf(stderr, "benchmark: GOMAXPROCS=%d exceeds the %d CPUs available; timings would measure the scheduler\n", procs, cpus)
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.workload != "" && o.trace >= 0 {
		return measureMain(o, stdout, stderr)
	}
	return driveMain(o, stdout, stderr)
}

// shape is the named workload's shape under the -dim override.
func (o options) shape(name string) shape {
	sh, _ := workloadByName(name)
	if o.dim > 0 {
		sh.ModelDim = o.dim
	}
	return sh
}

// report is the JSON object a measuring process prints as its last line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Error is the first failure; only printed with -full.
	Error string `json:"error,omitempty"`
}

// value is one metric reading; Value is null where the workload cannot
// measure the metric.
type value struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// measureMain is one measuring process: one workload, one phase.
func measureMain(o options, stdout, stderr io.Writer) int {
	release, err := lockRun(o.outDir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer release()
	sh := o.shape(o.workload)
	opts := runOpts{
		Seed: o.seed, Window: time.Duration(o.seconds) * time.Second, Rounds: o.rounds,
		Setups: 3, Pairs: 20, Reps: 30, RepBudget: 50 * time.Millisecond, Precondition: 3000, OutDir: o.outDir,
	}
	if o.rounds > 0 {
		// A fixed round count asks for a quick look: shrink the rest to match.
		opts.Setups, opts.Pairs, opts.Reps, opts.RepBudget, opts.Precondition = 1, o.rounds, 3, 0, 0
	}
	specs, run := endToEnd, runTimed
	if o.trace == 1 {
		specs, run = perLayer, runTraced
	}
	res, err := run(context.Background(), sh, opts)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", sh.Name, err)
		return 1
	}
	rep := report{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, spec := range specs {
		if !spec.Contract && !o.full {
			continue
		}
		v := value{Unit: spec.Unit}
		if x, ok := res.Metrics[spec.Name]; ok {
			v.Value = &x
		}
		rep.Metrics[spec.Name] = v
	}
	if o.full {
		rep.Error = res.Err
	} else if res.Err != "" {
		fmt.Fprintf(stderr, "benchmark: %s: %s\n", sh.Name, res.Err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// measure runs one measuring process and parses the report it prints.
func measure(o options, workload string, trace int, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-trace", strconv.Itoa(trace), "-full",
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-rounds", strconv.Itoa(o.rounds), "-dim", strconv.Itoa(o.dim), "-out", o.outDir)
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("unreadable report: %w", err)
	}
	return &rep, nil // a report with Correct=false carries its own verdict
}

// driveMain runs the measuring processes one at a time — per workload, the
// timed phase -repeat times, then the traced phase — prints what they
// report and writes one result file per workload plus the ledger.
func driveMain(o options, stdout, stderr io.Writer) int {
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	fp := newFingerprint()
	led := ledger{Fingerprint: fp}
	failed := false
	for _, name := range names {
		sh := o.shape(name)
		wr := workloadResult{Fingerprint: fp, Workload: sh, Seed: o.seed, Seconds: o.seconds, Rounds: o.rounds}
		fmt.Fprintf(stdout, "== %s: %s\n", sh.Name, sh.Why)
		for i := 0; i < o.repeat; i++ {
			rep, err := measure(o, name, 0, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s timed run: %v\n", name, err)
				return 1
			}
			wr.addRun(rep)
		}
		rep, err := measure(o, name, 1, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s traced run: %v\n", name, err)
			return 1
		}
		wr.addTrace(rep)
		wr.summarize()
		wr.print(stdout)
		if over := wr.PerLayer["core.trace_overhead_pct"]; over != nil && *over >= traceOverheadCeiling {
			wr.Errors = append(wr.Errors, fmt.Sprintf("tracing slowed the round by %.1f%% (ceiling %d%%): per-layer numbers do not describe the timed run", *over, traceOverheadCeiling))
		}
		for _, e := range wr.Errors {
			fmt.Fprintf(stdout, "FAIL %s: %s\n", name, e)
			failed = true
		}
		if err := writeJSON(filepath.Join(o.outDir, name+".json"), wr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		led.Workloads = append(led.Workloads, wr)
	}
	path := o.ledger
	if path == "" {
		path = filepath.Join(o.outDir, "ledger.json")
	}
	if err := writeJSON(path, led); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "results in %s, ledger %s\n", o.outDir, path)
	if failed {
		return 1
	}
	return 0
}

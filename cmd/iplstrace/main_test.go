package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ipls/internal/obs"
)

// writeSpanFile writes a small two-iteration trace split across files the
// way a distributed run produces them: the aggregator-side spans in one
// file, the storage-side merge span in another.
func writeSpanFiles(t *testing.T, dir string) (string, string) {
	t.Helper()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(ms int64) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	mk := func(iter int, id, parent, name, actor string, s, e int64) obs.Span {
		return obs.Span{
			Name: name, Actor: actor,
			Context: obs.SpanContext{Session: "run", Iter: iter, SpanID: id, Parent: parent},
			Start:   at(s), End: at(e),
		}
	}
	aggSide := []obs.Span{
		mk(0, "it0", "", "iteration", "session", 0, 100),
		mk(0, "agg0", "it0", "aggregate", "agg-p0-0", 10, 90),
		mk(0, "md0", "agg0", "merge_download", "agg-p0-0", 20, 60),
		mk(1, "it1", "", "iteration", "session", 0, 80),
	}
	storeSide := []obs.Span{
		mk(0, "m0", "md0", "merge", "ipfs-00", 25, 55),
	}
	write := func(name string, spans []obs.Span) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := obs.NewSpanJSONLWriter(f)
		for _, s := range spans {
			w.EmitSpan(s)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return write("agg.spans", aggSide), write("store.spans", storeSide)
}

func TestRunBreakdownTable(t *testing.T) {
	aggFile, storeFile := writeSpanFiles(t, t.TempDir())
	var out bytes.Buffer
	if err := run([]string{aggFile, storeFile}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "run iter 0") || !strings.Contains(text, "run iter 1") {
		t.Fatalf("missing iteration headers:\n%s", text)
	}
	// The storage-side merge span merged in and lands on the critical path.
	if !strings.Contains(text, "merge") {
		t.Fatalf("merged multi-file stream lost the merge span:\n%s", text)
	}
	if !strings.Contains(text, "latency 100ms") {
		t.Fatalf("iteration latency missing:\n%s", text)
	}
}

func TestRunJSONBreakdown(t *testing.T) {
	aggFile, storeFile := writeSpanFiles(t, t.TempDir())
	var out bytes.Buffer
	if err := run([]string{"-json", aggFile, storeFile}, &out); err != nil {
		t.Fatal(err)
	}
	var breakdowns []obs.IterationBreakdown
	if err := json.Unmarshal(out.Bytes(), &breakdowns); err != nil {
		t.Fatalf("-json output not valid JSON: %v", err)
	}
	if len(breakdowns) != 2 {
		t.Fatalf("breakdowns = %d, want 2", len(breakdowns))
	}
	var sum time.Duration
	for _, p := range breakdowns[0].Phases {
		sum += p.Duration
	}
	if sum != breakdowns[0].Latency || breakdowns[0].Latency != 100*time.Millisecond {
		t.Fatalf("phase sum %v vs latency %v", sum, breakdowns[0].Latency)
	}
}

func TestRunTreeView(t *testing.T) {
	aggFile, storeFile := writeSpanFiles(t, t.TempDir())
	var out bytes.Buffer
	if err := run([]string{"-tree", aggFile, storeFile}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	// The cross-file merge span nests under merge_download: deeper indent.
	mdLine, mLine := "", ""
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "merge_download") {
			mdLine = line
		} else if strings.Contains(line, "merge ") {
			mLine = line
		}
	}
	if mdLine == "" || mLine == "" {
		t.Fatalf("tree view missing merge spans:\n%s", text)
	}
	indent := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
	if indent(mLine) <= indent(mdLine) {
		t.Fatalf("merge not nested under merge_download:\n%s", text)
	}
	if !strings.Contains(text, "[ipfs-00]") {
		t.Fatalf("actor missing from tree:\n%s", text)
	}
}

// TestRunTreeViewEvents checks -tree prints each span event on its own
// line, indented under its span: offset into the span, name, then bytes
// and detail when set.
func TestRunTreeViewEvents(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(us int64) time.Time { return start.Add(time.Duration(us) * time.Microsecond) }
	cases := []struct {
		name  string
		event obs.SpanEvent
		want  string
	}{
		{"name only", obs.SpanEvent{Time: at(0), Name: "standby_takeover"}, "@+0s standby_takeover"},
		{"detail", obs.SpanEvent{Time: at(1500), Name: "screened_out", Detail: "t3"}, "@+1.5ms screened_out t3"},
		{"bytes and detail", obs.SpanEvent{Time: at(2), Name: "byzantine_reject", Bytes: 640, Detail: "t1"}, "@+2µs byzantine_reject 640B t1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			span := obs.Span{
				Name: "fetch_gradients", Actor: "agg-p0-0",
				Context: obs.SpanContext{Session: "run", SpanID: "f0"},
				Start:   start, End: at(5000),
				Events: []obs.SpanEvent{tc.event},
			}
			path := filepath.Join(t.TempDir(), "ev.spans")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			w := obs.NewSpanJSONLWriter(f)
			w.EmitSpan(span)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			f.Close()
			var out bytes.Buffer
			if err := run([]string{"-tree", path}, &out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
			if len(lines) != 3 {
				t.Fatalf("tree output:\n%s", out.String())
			}
			if got := strings.TrimSpace(lines[2]); got != tc.want {
				t.Fatalf("event line %q, want %q", got, tc.want)
			}
			indent := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
			if indent(lines[2]) <= indent(lines[1]) {
				t.Fatalf("event not indented under its span:\n%s", out.String())
			}
		})
	}
}

func TestRunChromeExport(t *testing.T) {
	dir := t.TempDir()
	aggFile, storeFile := writeSpanFiles(t, dir)
	chromePath := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	if err := run([]string{"-chrome", chromePath, aggFile, storeFile}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}
	var complete int
	for _, e := range trace.TraceEvents {
		if e.Phase == "X" {
			complete++
		}
	}
	if complete != 5 {
		t.Fatalf("chrome X events = %d, want 5", complete)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Fatal("no input files must error")
	}
	if err := run([]string{"/does/not/exist.spans"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing file must error")
	}
	empty := filepath.Join(t.TempDir(), "empty.spans")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{empty}, &bytes.Buffer{}); err == nil {
		t.Fatal("empty span stream must error")
	}
}

// writeBaselineFile folds the fixture span files into a baseline with the
// given scenario names so the -baseline path has something real to check
// against.
func writeBaselineFile(t *testing.T, dir string, spans []obs.Span, scenarios ...string) string {
	t.Helper()
	budget := obs.NewScenarioBudget(obs.BreakdownTrace(spans))
	base := obs.Baseline{Version: obs.BaselineVersion, Scenarios: map[string]obs.ScenarioBudget{}}
	for _, name := range scenarios {
		base.Scenarios[name] = budget
	}
	path := filepath.Join(dir, "base.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteBaseline(f, base); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func readSpans(t *testing.T, paths ...string) []obs.Span {
	t.Helper()
	var spans []obs.Span
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		part, err := obs.ReadSpanJSONL(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, part...)
	}
	return spans
}

func TestRunBaselineCheck(t *testing.T) {
	dir := t.TempDir()
	aggFile, storeFile := writeSpanFiles(t, dir)
	spans := readSpans(t, aggFile, storeFile)

	t.Run("single scenario inferred", func(t *testing.T) {
		base := writeBaselineFile(t, t.TempDir(), spans, "run")
		var out bytes.Buffer
		if err := run([]string{"-baseline", base, aggFile, storeFile}, &out); err != nil {
			t.Fatalf("self-check failed: %v\n%s", err, out.String())
		}
		if !strings.Contains(out.String(), "scenario run: PASS") {
			t.Fatalf("missing PASS line:\n%s", out.String())
		}
	})
	t.Run("multi scenario needs -scenario", func(t *testing.T) {
		base := writeBaselineFile(t, t.TempDir(), spans, "a", "b")
		err := run([]string{"-baseline", base, aggFile, storeFile}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "-scenario") {
			t.Fatalf("want pick-a-scenario error, got %v", err)
		}
		var out bytes.Buffer
		if err := run([]string{"-baseline", base, "-scenario", "b", aggFile, storeFile}, &out); err != nil {
			t.Fatalf("named-scenario check failed: %v\n%s", err, out.String())
		}
	})
	t.Run("unknown scenario", func(t *testing.T) {
		base := writeBaselineFile(t, t.TempDir(), spans, "run")
		err := run([]string{"-baseline", base, "-scenario", "nope", aggFile, storeFile}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "nope") {
			t.Fatalf("want unknown-scenario error, got %v", err)
		}
	})
	t.Run("regression fails naming phase", func(t *testing.T) {
		budget := obs.NewScenarioBudget(obs.BreakdownTrace(spans))
		merge := budget.Phases["merge"]
		merge.Max /= 2
		budget.Phases["merge"] = merge
		base := obs.Baseline{Version: obs.BaselineVersion, Scenarios: map[string]obs.ScenarioBudget{"run": budget}}
		path := filepath.Join(t.TempDir(), "tight.json")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteBaseline(f, base); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		checkErr := run([]string{"-baseline", path, aggFile, storeFile}, &out)
		if checkErr == nil || !strings.Contains(checkErr.Error(), "merge") {
			t.Fatalf("want merge violation, got %v\n%s", checkErr, out.String())
		}
		if !strings.Contains(out.String(), "FAIL") {
			t.Fatalf("report should FAIL:\n%s", out.String())
		}
	})
	t.Run("flag conflicts", func(t *testing.T) {
		base := writeBaselineFile(t, t.TempDir(), spans, "run")
		if err := run([]string{"-baseline", base, "-json", aggFile}, &bytes.Buffer{}); err == nil {
			t.Fatal("-baseline with -json must fail")
		}
		if err := run([]string{"-baseline", base, "-tree", aggFile}, &bytes.Buffer{}); err == nil {
			t.Fatal("-baseline with -tree must fail")
		}
		if err := run([]string{"-scenario", "run", aggFile}, &bytes.Buffer{}); err == nil {
			t.Fatal("-scenario without -baseline must fail")
		}
		if err := run([]string{"-baseline", base, "-tolerance", "-0.1", aggFile}, &bytes.Buffer{}); err == nil {
			t.Fatal("negative tolerance must fail")
		}
	})
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ipls/internal/obs"
)

func parseTaskFlags(t *testing.T, args []string) *taskFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tf := registerTaskFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return tf
}

func TestBuildConfigDeterministic(t *testing.T) {
	args := []string{"-trainers", "6", "-partitions", "3", "-aggregators", "2", "-verifiable"}
	a := parseTaskFlags(t, args)
	b := parseTaskFlags(t, args)
	ca, _, err := a.buildConfig()
	if err != nil {
		t.Fatal(err)
	}
	cb, _, err := b.buildConfig()
	if err != nil {
		t.Fatal(err)
	}
	// Two independently derived configs must agree on the whole wiring —
	// that is what lets parties coordinate with flags alone.
	if ca.TaskID != cb.TaskID || ca.Spec != cb.Spec || len(ca.Trainers) != len(cb.Trainers) {
		t.Fatal("configs differ")
	}
	for p := 0; p < ca.Spec.Partitions; p++ {
		for _, tr := range ca.Trainers {
			if ca.Assignment[p][tr] != cb.Assignment[p][tr] {
				t.Fatalf("assignment differs for %s partition %d", tr, p)
			}
		}
	}
}

func TestLocalDataDeterministicAndDisjoint(t *testing.T) {
	tf := parseTaskFlags(t, []string{"-trainers", "4"})
	d0a, err := tf.localData(0)
	if err != nil {
		t.Fatal(err)
	}
	d0b, err := tf.localData(0)
	if err != nil {
		t.Fatal(err)
	}
	if d0a.Len() != d0b.Len() {
		t.Fatal("local data not deterministic")
	}
	for i := range d0a.X {
		for j := range d0a.X[i] {
			if d0a.X[i][j] != d0b.X[i][j] {
				t.Fatal("local data not deterministic")
			}
		}
	}
	total := 0
	for i := 0; i < 4; i++ {
		d, err := tf.localData(i)
		if err != nil {
			t.Fatal(err)
		}
		total += d.Len()
	}
	if total != 60*4 {
		t.Fatalf("shards do not cover the dataset: %d", total)
	}
}

func TestSharedArgsRoundTrip(t *testing.T) {
	orig := parseTaskFlags(t, []string{
		"-task", "roundtrip", "-trainers", "5", "-partitions", "3",
		"-aggregators", "2", "-storage-nodes", "4", "-providers", "1",
		"-verifiable", "-rounds", "7", "-seed", "13", "-lr", "0.5",
		"-epochs", "3", "-batch", "8",
	})
	re := parseTaskFlags(t, sharedArgs(orig))
	if *orig != *re {
		t.Fatalf("sharedArgs round trip mismatch:\n%+v\n%+v", orig, re)
	}
}

func TestRunUsage(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("expected usage error")
	}
	if err := run([]string{"fly"}); err == nil {
		t.Fatal("expected unknown-subcommand error")
	}
}

func TestTrainerAggregatorValidation(t *testing.T) {
	if err := trainer([]string{"-index", "99", "-addr", "127.0.0.1:1"}); err == nil {
		t.Fatal("expected index range error")
	}
	if err := aggregator([]string{"-partition", "99", "-addr", "127.0.0.1:1"}); err == nil {
		t.Fatal("expected partition range error")
	}
	if err := aggregator([]string{"-partition", "0", "-slot", "99", "-addr", "127.0.0.1:1"}); err == nil {
		t.Fatal("expected slot range error")
	}
}

func TestDemoEndToEnd(t *testing.T) {
	err := demo([]string{
		"-trainers", "2", "-partitions", "2", "-aggregators", "1",
		"-storage-nodes", "2", "-rounds", "1", "-verifiable",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// testObsFlags builds an obsFlags with defaults as if parsed from an
// empty command line, overriding the given fields.
func testObsFlags(addr, spanOut, spanSample string, pprof bool) *obsFlags {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	of := registerObsFlags(fs)
	if err := fs.Parse(nil); err != nil {
		panic(err)
	}
	of.metricsAddr, of.spanOut, of.spanSample, of.pprof = addr, spanOut, spanSample, pprof
	return of
}

func TestStartIntrospectionServes(t *testing.T) {
	in, err := startIntrospection(testObsFlags("127.0.0.1:0", "", "", false), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	in.reg.Counter("bytes_uploaded_total", "node", "ipfs-00").Add(77)
	in.sink.EmitSpan(obs.Span{
		Name: "fetch_gradients", Actor: "agg-p0-0",
		Context: obs.SpanContext{Session: "d", Iter: 0, SpanID: obs.NewSpanID()},
		Events:  []obs.SpanEvent{{Name: "screened_out", Detail: "trainer-00"}},
	})

	get := func(path string) string {
		resp, err := http.Get("http://" + in.srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, `bytes_uploaded_total{node="ipfs-00"} 77`) {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if body := get("/spans"); !strings.Contains(body, `"screened_out"`) || !strings.Contains(body, "trainer-00") {
		t.Fatalf("/spans missing span event:\n%s", body)
	}
	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %q", body)
	}
}

// TestStartIntrospectionAlerts drives /alerts through iplsd's own bundle:
// a same-iteration upload crowd with one 10x actor is a straggler at
// once, and silence past -stuck-after adds stuck_round.
func TestStartIntrospectionAlerts(t *testing.T) {
	of := testObsFlags("127.0.0.1:0", "", "", false)
	of.stuckAfter = 50 * time.Millisecond
	in, err := startIntrospection(of, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	end := time.Now()
	for i, d := range []time.Duration{10, 11, 9, 10, 12, 100} {
		in.sink.EmitSpan(obs.Span{
			Name: "upload", Actor: fmt.Sprintf("trainer-%02d", i),
			Context: obs.SpanContext{Session: "d", Iter: 2, SpanID: obs.NewSpanID()},
			Start:   end.Add(-d * time.Millisecond), End: end,
		})
	}

	alerts := func() obs.HealthStatus {
		resp, err := http.Get("http://" + in.srv.Addr + "/alerts")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st obs.HealthStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := alerts()
	if len(st.Stragglers) != 1 || st.Stragglers[0].Actor != "trainer-05" || st.Stragglers[0].Iter != 2 {
		t.Fatalf("/alerts stragglers = %+v, want trainer-05 in iteration 2", st.Stragglers)
	}
	time.Sleep(100 * time.Millisecond)
	if st := alerts(); len(st.Firing) != 1 || st.Firing[0] != obs.StuckRound || len(st.Stragglers) != 1 {
		t.Fatalf("/alerts after the deadline = %+v, want stuck_round and the straggler", st)
	}
}

func TestStartIntrospectionSpansAndPprof(t *testing.T) {
	dir := t.TempDir()
	spanPath := filepath.Join(dir, "role.spans")
	in, err := startIntrospection(testObsFlags("127.0.0.1:0", spanPath, "", true), 0)
	if err != nil {
		t.Fatal(err)
	}
	in.sink.EmitSpan(obs.Span{
		Name:    "upload",
		Actor:   "trainer-00",
		Context: obs.SpanContext{Session: "d", Iter: 0, SpanID: obs.NewSpanID()},
	})

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + in.srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/spans"); code != 200 || !strings.Contains(body, `"upload"`) {
		t.Fatalf("/spans = %d %q", code, body)
	}
	if code, body := get("/buildinfo"); code != 200 || !strings.Contains(body, "go_version") {
		t.Fatalf("/buildinfo = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof not mounted with -pprof: %d", code)
	}

	// close() flushes the span JSONL file.
	in.close()
	f, err := os.Open(spanPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadSpanJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Name != "upload" {
		t.Fatalf("span file = %+v", spans)
	}
}

func TestStartIntrospectionPprofOffByDefault(t *testing.T) {
	in, err := startIntrospection(testObsFlags("127.0.0.1:0", "", "", false), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	resp, err := http.Get("http://" + in.srv.Addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("pprof reachable without -pprof: %d", resp.StatusCode)
	}
}

func TestStartIntrospectionDisabled(t *testing.T) {
	in, err := startIntrospection(testObsFlags("", "", "", false), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	if in.srv != nil {
		t.Fatal("no HTTP server expected when the address is empty")
	}
	// The bundle must still work as a metrics/span target.
	in.reg.Counter("x").Inc()
	in.sink.EmitSpan(obs.Span{Name: "takeover", Context: obs.SpanContext{Session: "d", SpanID: obs.NewSpanID()}})
	if spans := in.spans.Spans(); len(spans) != 1 || spans[0].Name != "takeover" {
		t.Fatalf("span collector inert: %+v", spans)
	}
}

func TestDemoWithIntrospectionEndpoint(t *testing.T) {
	err := demo([]string{
		"-trainers", "2", "-partitions", "1", "-aggregators", "1",
		"-storage-nodes", "2", "-rounds", "1",
		"-metrics-addr", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDemoSignedEndToEnd(t *testing.T) {
	err := demo([]string{
		"-task", "signed-demo", "-trainers", "2", "-partitions", "1",
		"-aggregators", "1", "-storage-nodes", "2", "-rounds", "1",
		"-verifiable", "-signed",
	})
	if err != nil {
		t.Fatal(err)
	}
}

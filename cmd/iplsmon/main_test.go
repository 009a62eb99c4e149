package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"ipls/internal/obs"
)

func startMonitoredEndpoint(t *testing.T) string {
	t.Helper()
	base := time.Unix(0, 0).UTC()
	now := base.Add(time.Minute)

	// A same-iteration upload crowd with one straggler, then silence
	// past the watchdog's deadline.
	wd := obs.NewWatchdog(time.Second)
	for i, d := range []time.Duration{400, 420, 380, 410, 390, 4200} {
		wd.EmitSpan(obs.Span{
			Name: "upload", Actor: fmt.Sprintf("trainer-%02d", i),
			Context: obs.SpanContext{Session: "s", Iter: 4, SpanID: obs.NewSpanID()},
			Start:   base, End: base.Add(d * time.Millisecond),
		})
	}

	reg := obs.NewRegistry()
	reg.Counter("iterations_total").Inc()

	srv, err := obs.StartHTTP("127.0.0.1:0", obs.HandlerConfig{
		Registry: reg,
		Alerts:   func() any { return wd.Status(now) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr
}

func TestRunOnceJSON(t *testing.T) {
	addr := startMonitoredEndpoint(t)
	var buf bytes.Buffer
	if err := run([]string{"-addr", addr, "-once", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var snap monSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("output is not a single JSON document: %v\n%s", err, buf.String())
	}
	if len(snap.Health.Firing) != 1 || snap.Health.Firing[0] != obs.StuckRound {
		t.Fatalf("firing = %v, want [%s]", snap.Health.Firing, obs.StuckRound)
	}
	st := snap.Health.Stragglers
	if len(st) != 1 || st[0].Actor != "trainer-05" || st[0].Phase != "upload" || st[0].Iter != 4 ||
		st[0].LastSeconds != 4.2 || st[0].MedianSeconds != 0.4 {
		t.Fatalf("stragglers = %+v, want trainer-05 at 4.2s over a 0.4s median", st)
	}
	if len(snap.Metrics.Counters) == 0 {
		t.Fatalf("metrics snapshot empty: %+v", snap.Metrics)
	}
}

func TestRunOnceHumanReadable(t *testing.T) {
	addr := startMonitoredEndpoint(t)
	var buf bytes.Buffer
	if err := run([]string{"-addr", addr, "-once"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"firing: stuck_round", "trainer-05", "upload", "10.5x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[2J") {
		t.Fatal("-once output contains screen-clear escapes")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-once"}, &buf); err == nil {
		t.Fatal("missing -addr accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:1", "-once", "-timeout", "100ms", "-json"}, &buf); err == nil {
		t.Fatal("unreachable endpoint did not error")
	}
}

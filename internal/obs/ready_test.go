package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestReadinessComposition(t *testing.T) {
	r := NewReadiness()
	if err := r.Check(); err != nil {
		t.Fatalf("empty probe not ready: %v", err)
	}
	healthy := true
	r.Register("storage", func() error {
		if !healthy {
			return errors.New("2/5 nodes live")
		}
		return nil
	})
	r.Register("directory", func() error { return nil })
	if err := r.Check(); err != nil {
		t.Fatalf("all-healthy probe failed: %v", err)
	}
	healthy = false
	err := r.Check()
	if err == nil || !strings.Contains(err.Error(), "storage: 2/5 nodes live") {
		t.Fatalf("failing check not named: %v", err)
	}
	rep := r.Report()
	if len(rep) != 2 || rep[0].Name != "storage" || rep[0].OK || rep[1].Name != "directory" || !rep[1].OK {
		t.Fatalf("report = %+v", rep)
	}
	var nilProbe *Readiness
	if nilProbe.Check() != nil || nilProbe.Report() != nil {
		t.Fatal("nil probe not a no-op")
	}
}

func TestAlertsAndReadyzEndpoints(t *testing.T) {
	// A same-iteration upload crowd with one 10x actor, then silence
	// past the watchdog's deadline.
	base := time.Unix(0, 0).UTC()
	wd := NewWatchdog(time.Second)
	for i, d := range []time.Duration{100, 110, 90, 105, 95, 1000} {
		wd.EmitSpan(Span{
			Name: "upload", Actor: fmt.Sprintf("trainer-%02d", i),
			Context: SpanContext{Session: "s", Iter: 3, SpanID: NewSpanID()},
			Start:   base, End: base.Add(d * time.Millisecond),
		})
	}
	now := base.Add(5 * time.Second)

	ready := NewReadiness()
	broken := errors.New("no heartbeat for 7s")
	ready.Register("round_progressing", func() error { return broken })

	srv, err := StartHTTP("127.0.0.1:0", HandlerConfig{
		Registry:  NewRegistry(),
		Alerts:    func() any { return wd.Status(now) },
		Health:    ready.Check,
		Readiness: ready,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr + path)
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
	code, body := get("/alerts")
	var st HealthStatus
	if err := json.Unmarshal([]byte(body), &st); code != 200 || err != nil {
		t.Fatalf("/alerts = %d %s (%v)", code, body, err)
	}
	if len(st.Firing) != 1 || st.Firing[0] != StuckRound {
		t.Fatalf("/alerts firing = %v, want [%s]", st.Firing, StuckRound)
	}
	if len(st.Stragglers) != 1 || st.Stragglers[0].Actor != "trainer-05" || st.Stragglers[0].Iter != 3 {
		t.Fatalf("/alerts stragglers = %+v, want trainer-05 in iter 3", st.Stragglers)
	}
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "round_progressing") || !strings.Contains(body, "no heartbeat") {
		t.Fatalf("/readyz = %d %s", code, body)
	}
	if code, _ := get("/healthz"); code != 503 {
		t.Fatalf("/healthz = %d, want 503 behind failing readiness", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/alerts") || !strings.Contains(body, "/readyz") {
		t.Fatalf("index missing new endpoints: %d %s", code, body)
	}
	broken = nil
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, `"ready": true`) {
		t.Fatalf("/readyz after recovery = %d %s", code, body)
	}
}

package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bytes_uploaded_total", "node", "s0").Add(42)
	h := NewHandler(HandlerConfig{Registry: reg})

	code, body := get(t, h, "/metrics")
	if code != 200 || !strings.Contains(body, `bytes_uploaded_total{node="s0"} 42`) {
		t.Fatalf("/metrics = %d %q", code, body)
	}

	code, body = get(t, h, "/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters[`bytes_uploaded_total{node="s0"}`] != 42 {
		t.Fatalf("snapshot counters = %v", snap.Counters)
	}

	code, body = get(t, h, "/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, _ = get(t, h, "/nope")
	if code != 404 {
		t.Fatalf("unknown path = %d, want 404", code)
	}
}

func TestHandlerSpansAndBuildInfo(t *testing.T) {
	c := NewSpanCollector(0)
	c.EmitSpan(mkSpan("s", 0, "a", "", "upload", 0, 10))
	h := NewHandler(HandlerConfig{Spans: func() any { return c.Spans() }})

	code, body := get(t, h, "/spans")
	if code != 200 {
		t.Fatalf("/spans = %d", code)
	}
	var spans []Span
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Name != "upload" {
		t.Fatalf("/spans = %v", spans)
	}

	code, body = get(t, h, "/buildinfo")
	if code != 200 {
		t.Fatalf("/buildinfo = %d", code)
	}
	var info BuildInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.GoVersion == "" || info.OS == "" || info.Arch == "" {
		t.Fatalf("/buildinfo missing runtime identity: %+v", info)
	}
}

func TestHandlerPprofGated(t *testing.T) {
	off := NewHandler(HandlerConfig{})
	if code, _ := get(t, off, "/debug/pprof/"); code != 404 {
		t.Fatalf("pprof without opt-in = %d, want 404", code)
	}
	on := NewHandler(HandlerConfig{Pprof: true})
	code, body := get(t, on, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "profile") {
		t.Fatalf("pprof with opt-in = %d %q", code, body)
	}
	if code, _ := get(t, on, "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof cmdline = %d", code)
	}
	// The index page advertises pprof only when mounted.
	if _, body := get(t, on, "/"); !strings.Contains(body, "/debug/pprof/") {
		t.Fatalf("index does not list pprof: %q", body)
	}
	if _, body := get(t, off, "/"); strings.Contains(body, "/debug/pprof/") {
		t.Fatalf("index lists pprof while disabled: %q", body)
	}
}

func TestHandlerHealthFailure(t *testing.T) {
	h := NewHandler(HandlerConfig{Health: func() error { return errors.New("directory down") }})
	code, body := get(t, h, "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "directory down") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}

func TestHandlerWithoutEventsOrRegistry(t *testing.T) {
	h := NewHandler(HandlerConfig{})
	if code, _ := get(t, h, "/metrics"); code != 200 {
		t.Fatalf("/metrics without registry = %d", code)
	}
	code, body := get(t, h, "/spans")
	if code != 200 || strings.TrimSpace(body) != "[]" {
		t.Fatalf("/spans without source = %d %q", code, body)
	}
	if code, _ := get(t, h, "/events"); code != 404 {
		t.Fatalf("/events = %d, want 404", code)
	}
}

func TestStartHTTPServesOverTCP(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up").Inc()
	srv, err := StartHTTP("127.0.0.1:0", HandlerConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "up 1") {
		t.Fatalf("served metrics = %q", body)
	}
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
)

// WriteJSON renders a snapshot of the registry as indented JSON — the
// machine-readable companion to WriteProm, used for diffable benchmark
// metric files.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// HandlerConfig wires the introspection endpoints.
type HandlerConfig struct {
	// Registry backs /metrics (Prometheus text) and /metrics.json.
	Registry *Registry
	// Spans, when non-nil, backs /spans with a JSON-marshalable value
	// (typically a span collector's recent spans).
	Spans func() any
	// Scoreboard, when non-nil, backs /scoreboard with a JSON-marshalable
	// value (typically MergeSnapshots over the per-node split of the
	// registry).
	Scoreboard func() any
	// Alerts, when non-nil, backs /alerts with a JSON-marshalable value
	// (typically a Watchdog's HealthStatus).
	Alerts func() any
	// Health, when non-nil, backs /healthz; an error answers 503.
	// Typically Readiness.Check when Readiness is also set.
	Health func() error
	// Readiness, when non-nil, backs /readyz with the per-component
	// check results; any failing check answers 503.
	Readiness *Readiness
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/.
	// Off by default: profiling endpoints expose heap contents and should
	// be opted into per process.
	Pprof bool
}

// BuildInfo is the /buildinfo payload: enough to pin down exactly which
// binary produced a metrics snapshot or trace.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Main      string `json:"main,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	Time      string `json:"vcs_time,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
}

// ReadBuildInfo collects the running binary's build identity from the
// embedded module and VCS metadata ("go build" stamps VCS settings for
// repository builds; test binaries have none, which leaves those fields
// empty).
func ReadBuildInfo() BuildInfo {
	info := BuildInfo{GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info.Main = bi.Main.Path
	info.Version = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.time":
			info.Time = s.Value
		case "vcs.modified":
			info.Modified = s.Value == "true"
		}
	}
	return info
}

// NewHandler builds the live-introspection handler:
//
//	/metrics       Prometheus text exposition of the registry
//	/metrics.json  JSON snapshot of the registry
//	/spans         recent spans as JSON
//	/scoreboard    cluster resource scoreboard as JSON
//	/alerts        round-watchdog verdicts (stuck_round, stragglers) as JSON
//	/buildinfo     go version and VCS identity of the binary
//	/healthz       liveness probe (composed readiness when wired)
//	/readyz        per-component readiness checks as JSON; 503 on failure
//	/debug/pprof/  runtime profiles (only with cfg.Pprof)
func NewHandler(cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "ipls introspection\n\n/metrics\n/metrics.json\n/spans\n/scoreboard\n/alerts\n/buildinfo\n/healthz\n/readyz\n")
		if cfg.Pprof {
			fmt.Fprint(w, "/debug/pprof/\n")
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := cfg.Registry.WriteProm(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := cfg.Registry.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	// serveJSON mounts an indented-JSON endpoint over src, answering
	// empty when src is nil.
	serveJSON := func(path string, src func() any, empty any) {
		mux.HandleFunc(path, func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			payload := empty
			if src != nil {
				payload = src()
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(payload); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	serveJSON("/spans", cfg.Spans, []any{})
	serveJSON("/scoreboard", cfg.Scoreboard, Scoreboard{})
	serveJSON("/alerts", cfg.Alerts, HealthStatus{})
	serveJSON("/buildinfo", func() any { return ReadBuildInfo() }, nil)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
		report := cfg.Readiness.Report()
		ready := true
		for _, res := range report {
			if !res.OK {
				ready = false
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Ready  bool          `json:"ready"`
			Checks []CheckResult `json:"checks"`
		}{ready, report}); err != nil && ready {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Health != nil {
			if err := cfg.Health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// HTTPServer is a running introspection server.
type HTTPServer struct {
	// Addr is the bound address (useful with ":0" listens).
	Addr string
	srv  *http.Server
}

// StartHTTP binds addr and serves the introspection handler in the
// background. Close the returned server to stop it.
func StartHTTP(addr string, cfg HandlerConfig) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewHandler(cfg)}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return &HTTPServer{Addr: ln.Addr().String(), srv: srv}, nil
}

// Close stops the server, interrupting in-flight requests.
func (s *HTTPServer) Close() error { return s.srv.Close() }

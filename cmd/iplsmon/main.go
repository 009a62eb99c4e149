// Command iplsmon is a live terminal dashboard over a running node's
// introspection endpoint: it polls /metrics.json and /alerts and renders
// the round watchdog's firing verdicts and straggler table, refreshing
// in place. With -once it prints a single snapshot and exits; with -json
// it emits the combined document for scripting, so
// `iplsmon -addr HOST:PORT -once -json | jq .health.firing` works as a
// health probe.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"ipls/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "iplsmon:", err)
		os.Exit(1)
	}
}

// monSnapshot is the combined polled state of one refresh.
type monSnapshot struct {
	Addr    string           `json:"addr"`
	At      time.Time        `json:"at"`
	Health  obs.HealthStatus `json:"health"`
	Metrics obs.Snapshot     `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("iplsmon", flag.ContinueOnError)
	addr := fs.String("addr", "", "introspection address (host:port) to poll")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	once := fs.Bool("once", false, "poll once and exit instead of refreshing")
	asJSON := fs.Bool("json", false, "emit the combined snapshot as JSON (implies no dashboard chrome)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required (e.g. 127.0.0.1:9090)")
	}
	client := &http.Client{Timeout: *timeout}

	if *once {
		snap, err := poll(client, *addr)
		if err != nil {
			return err
		}
		return render(stdout, snap, *asJSON, false)
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	defer signal.Stop(interrupt)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		snap, err := poll(client, *addr)
		if err != nil {
			fmt.Fprintf(stdout, "\033[2J\033[H(poll %s: %v)\n", *addr, err)
		} else if err := render(stdout, snap, *asJSON, !*asJSON); err != nil {
			return err
		}
		select {
		case <-interrupt:
			return nil
		case <-tick.C:
		}
	}
}

// poll fetches /alerts and /metrics.json from the node.
func poll(client *http.Client, addr string) (monSnapshot, error) {
	snap := monSnapshot{Addr: addr, At: time.Now()}
	if err := getJSON(client, "http://"+addr+"/alerts", &snap.Health); err != nil {
		return snap, err
	}
	if err := getJSON(client, "http://"+addr+"/metrics.json", &snap.Metrics); err != nil {
		return snap, err
	}
	return snap, nil
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// render writes one refresh. clear prepends the ANSI clear-screen
// sequence for live mode.
func render(w io.Writer, snap monSnapshot, asJSON, clear bool) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	var b strings.Builder
	if clear {
		b.WriteString("\033[2J\033[H")
	}
	fmt.Fprintf(&b, "iplsmon %s  %s  firing=%d  stragglers=%d\n",
		snap.Addr, snap.At.Format("15:04:05"), len(snap.Health.Firing), len(snap.Health.Stragglers))

	for _, name := range snap.Health.Firing {
		fmt.Fprintf(&b, "firing: %s\n", name)
	}

	if len(snap.Health.Stragglers) > 0 {
		fmt.Fprintf(&b, "\n%-20s %-18s %5s %9s %9s %7s\n", "straggler", "phase", "iter", "last", "median", "ratio")
		for _, s := range snap.Health.Stragglers {
			fmt.Fprintf(&b, "%-20s %-18s %5d %9s %9s %6.1fx\n",
				s.Actor, s.Phase, s.Iter, fmtSeconds(s.LastSeconds), fmtSeconds(s.MedianSeconds), s.Ratio)
		}
	}

	// Headline cumulative counters, if present.
	var counters []string
	for _, name := range []string{
		"gradients_uploaded_total", "globals_published_total",
		"merge_downloads_total",
	} {
		total := int64(0)
		found := false
		for k, v := range snap.Metrics.Counters {
			if k == name || strings.HasPrefix(k, name+"{") {
				total += v
				found = true
			}
		}
		if found {
			counters = append(counters, fmt.Sprintf("%s=%d", name, total))
		}
	}
	if len(counters) > 0 {
		fmt.Fprintf(&b, "\n%s\n", strings.Join(counters, "  "))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// fmtSeconds renders a duration in seconds compactly (µs/ms/s).
func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 0.001:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ipls/internal/netsim"
	"ipls/internal/obs"
)

// The round watchdog lives in obs; these tests drive it with the span
// shapes sessions and the simulator emit.

// simBase anchors the simulator's virtual clock (see Simulate).
var simBase = time.Unix(0, 0).UTC()

func watchSpan(name, actor string, iter int, start, end time.Duration) obs.Span {
	return obs.Span{
		Name: name, Actor: actor,
		Context: obs.SpanContext{Session: "t", Iter: iter, SpanID: obs.NewSpanID()},
		Start:   simBase.Add(start), End: simBase.Add(end),
	}
}

func TestWatchdogHeartbeatsAndStuckDetection(t *testing.T) {
	wd := obs.NewWatchdog(time.Second)
	if err := wd.Check(simBase.Add(time.Hour)); err != nil {
		t.Fatalf("nothing started yet, but Check failed: %v", err)
	}
	wd.EmitSpan(watchSpan("upload", "trainer-00", 0, 0, 100*time.Millisecond))
	wd.EmitSpan(watchSpan("upload", "trainer-01", 0, 0, 200*time.Millisecond))
	at := simBase.Add(300 * time.Millisecond)
	if err := wd.Check(at); err != nil {
		t.Fatalf("healthy cadence flagged: %v", err)
	}
	if firing := wd.Status(at).Firing; len(firing) != 0 {
		t.Fatalf("firing = %v on healthy cadence", firing)
	}

	// Silence past the deadline: Check fails and stuck_round fires.
	late := simBase.Add(5 * time.Second)
	if err := wd.Check(late); err == nil {
		t.Fatal("stalled session passed Check")
	}
	if firing := wd.Status(late).Firing; len(firing) != 1 || firing[0] != obs.StuckRound {
		t.Fatalf("firing = %v, want [%s]", firing, obs.StuckRound)
	}

	// A late span (e.g. a takeover) clears both verdicts, and MaxGap
	// keeps the silence it closed.
	wd.EmitSpan(watchSpan("takeover", "agg-p0-1", 0, 5*time.Second, 6*time.Second))
	recovered := simBase.Add(6500 * time.Millisecond)
	if err := wd.Check(recovered); err != nil {
		t.Fatalf("recovered session flagged: %v", err)
	}
	if firing := wd.Status(recovered).Firing; len(firing) != 0 {
		t.Fatalf("firing = %v after recovery, want none", firing)
	}
	if gap := wd.MaxGap(); gap != 5800*time.Millisecond {
		t.Fatalf("max gap = %v, want the 5.8s silence", gap)
	}
	if wd.Phases() != 2 {
		t.Fatalf("phases = %d, want upload and takeover", wd.Phases())
	}
}

func TestWatchdogStragglerDetection(t *testing.T) {
	wd := obs.NewWatchdog(0)
	end := 500 * time.Millisecond
	for i, d := range []time.Duration{
		100 * time.Millisecond, 110 * time.Millisecond, 90 * time.Millisecond,
		120 * time.Millisecond, 100 * time.Millisecond, 95 * time.Millisecond,
		105 * time.Millisecond, 100 * time.Millisecond, 110 * time.Millisecond,
		100 * time.Millisecond, 95 * time.Millisecond, 10 * time.Second, // trainer-11 straggles
	} {
		actor := string(rune('a' + i))
		if i == 11 {
			actor = "trainer-11"
		}
		wd.EmitSpan(watchSpan("upload", actor, 0, 0, end+d))
	}
	got := wd.Status(simBase.Add(11 * time.Second)).Stragglers
	if len(got) != 1 || got[0].Actor != "trainer-11" || got[0].Phase != "upload" || got[0].Iter != 0 {
		t.Fatalf("stragglers = %+v, want trainer-11/upload", got)
	}
	if got[0].Ratio < 3 || got[0].MedianSeconds != 0.6 {
		t.Fatalf("straggler = %+v, want ratio > 3 over the 0.6s median", got[0])
	}

	// The crowd is the iteration, not the phase's history: the same
	// latency among peers as slow as itself is no straggler.
	for i := 0; i < 5; i++ {
		wd.EmitSpan(watchSpan("upload", fmt.Sprintf("trainer-%02d", i), 1, 20*time.Second, 30*time.Second))
	}
	// Below 10ms a 50x outlier is scheduler jitter, not a straggler.
	for i := 0; i < 6; i++ {
		d := 100 * time.Microsecond
		if i == 5 {
			d = 5 * time.Millisecond
		}
		wd.EmitSpan(watchSpan("store_put", fmt.Sprintf("trainer-%02d", i), 1, 30*time.Second, 30*time.Second+d))
	}
	if got := wd.Status(simBase.Add(31 * time.Second)).Stragglers; len(got) != 1 || got[0].Iter != 0 {
		t.Fatalf("stragglers = %+v, want only iteration 0's", got)
	}
}

// TestWatchdogOrderIndependent: the verdicts are a function of the span
// multiset. Shuffling the arrival order, across more iterations than the
// watchdog remembers, must give an identical Status.
func TestWatchdogOrderIndependent(t *testing.T) {
	var spans []obs.Span
	for iter := 0; iter < 7; iter++ {
		base := time.Duration(iter) * time.Second
		for i := 0; i < 8; i++ {
			d := time.Duration(90+i) * time.Millisecond
			if i == iter%8 {
				d *= 5 // one straggler per iteration
			}
			spans = append(spans,
				watchSpan("upload", fmt.Sprintf("trainer-%02d", i), iter, base, base+d),
				watchSpan("aggregate", fmt.Sprintf("agg-p%d-0", i%2), iter, base+d, base+d+50*time.Millisecond))
		}
	}
	status := func(order []obs.Span) obs.HealthStatus {
		wd := obs.NewWatchdog(2 * time.Second)
		for _, s := range order {
			wd.EmitSpan(s)
		}
		return wd.Status(simBase.Add(time.Minute))
	}
	want := status(spans)
	if len(want.Stragglers) != 4 {
		t.Fatalf("stragglers = %+v, want one per remembered iteration 3..6", want.Stragglers)
	}
	for _, s := range want.Stragglers {
		if s.Iter < 3 || s.Phase != "upload" || s.Actor != fmt.Sprintf("trainer-%02d", s.Iter%8) {
			t.Fatalf("stragglers = %+v, want one per remembered iteration 3..6", want.Stragglers)
		}
	}
	if len(want.Firing) != 1 || want.Firing[0] != obs.StuckRound {
		t.Fatalf("firing = %v", want.Firing)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]obs.Span(nil), spans...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := status(shuffled); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: status depends on arrival order:\n%+v\n%+v", trial, got, want)
		}
	}
}

// TestSimulateStragglerFiresAlerts is the acceptance scenario: a
// deterministic netsim run with one trainer's links degraded by a
// LossWindow must flag the trainer as an upload straggler and record a
// heartbeat gap past the deadline, all in virtual time.
func TestSimulateStragglerFiresAlerts(t *testing.T) {
	run := func(spans obs.SpanSink) (*SimResult, *obs.Watchdog) {
		t.Helper()
		wd := obs.NewWatchdog(2 * time.Second)
		sink := obs.MultiSpanSink{wd}
		if spans != nil {
			sink = append(sink, spans)
		}
		res, err := Simulate(SimConfig{
			Trainers:                12,
			Partitions:              1,
			AggregatorsPerPartition: 1,
			StorageNodes:            4,
			PartitionBytes:          1 << 20,
			BandwidthMbps:           100,
			// trainer-00's links run at 1% capacity for the first minute:
			// its 1 MiB upload takes ~100× longer than the fleet's.
			LinkLoss: []netsim.LossWindow{{Node: "trainer-00", From: 0, To: time.Minute, Factor: 0.01}},
			Spans:    sink,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, wd
	}
	collector := obs.NewSpanCollector(4096)
	res, wd := run(collector)
	if res.UploadDelayMax < 5*time.Second {
		t.Fatalf("straggler not slow: max upload delay %v", res.UploadDelayMax)
	}
	end := simBase.Add(res.TotalDelay)
	st := wd.Status(end)
	found := false
	for _, s := range st.Stragglers {
		if s.Actor == "trainer-00" && s.Phase == "upload" {
			found = true
		}
	}
	if !found {
		t.Fatalf("trainer-00 not flagged: %+v", st.Stragglers)
	}
	if wd.MaxGap() <= 2*time.Second {
		t.Fatalf("max heartbeat gap = %v, want past the deadline", wd.MaxGap())
	}
	// The watchdog shares the span fan-out rather than replacing it.
	if len(collector.Spans()) == 0 {
		t.Fatal("span collector starved by the watchdog")
	}

	// Determinism: the same config reproduces the same verdicts.
	_, wd2 := run(nil)
	if st2 := wd2.Status(end); !reflect.DeepEqual(st, st2) {
		t.Fatalf("status not deterministic:\n%+v\n%+v", st, st2)
	}
}

package netsim

import (
	"math"
	"testing"
	"time"
)

const mb = 1 << 20

func approx(t *testing.T, got, want time.Duration, tolFrac float64, msg string) {
	t.Helper()
	diff := math.Abs(got.Seconds() - want.Seconds())
	if diff > want.Seconds()*tolFrac+1e-6 {
		t.Fatalf("%s: got %v, want ~%v", msg, got, want)
	}
}

func TestSingleTransferDuration(t *testing.T) {
	e := NewEnv()
	a := e.AddNode("a", Mbps(10), Mbps(10))
	b := e.AddNode("b", Mbps(10), Mbps(10))
	var done time.Duration
	e.Go("xfer", func() {
		e.Transfer(a, b, 10*mb)
		done = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 10 MiB over 10 Mbps = 10·2^20·8 / 10^7 s ≈ 8.39 s.
	want := time.Duration(float64(10*mb*8) / Mbps(10) * float64(time.Second))
	approx(t, done, want, 0.001, "transfer duration")
}

func TestAsymmetricLinksUseBottleneck(t *testing.T) {
	e := NewEnv()
	a := e.AddNode("a", Mbps(100), Mbps(100))
	b := e.AddNode("b", Mbps(100), Mbps(5)) // 5 Mbps downlink is the bottleneck
	var done time.Duration
	e.Go("xfer", func() {
		e.Transfer(a, b, mb)
		done = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(float64(mb*8) / Mbps(5) * float64(time.Second))
	approx(t, done, want, 0.001, "bottleneck duration")
}

func TestFairSharingAtReceiver(t *testing.T) {
	// Two senders into one receiver downlink: each gets half the capacity,
	// so both complete at 2x the solo duration.
	e := NewEnv()
	recv := e.AddNode("recv", Mbps(10), Mbps(10))
	s1 := e.AddNode("s1", Mbps(10), Mbps(10))
	s2 := e.AddNode("s2", Mbps(10), Mbps(10))
	var d1, d2 time.Duration
	e.Go("s1", func() { e.Transfer(s1, recv, 5*mb); d1 = e.Now() })
	e.Go("s2", func() { e.Transfer(s2, recv, 5*mb); d2 = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(float64(5*mb*8) / Mbps(5) * float64(time.Second))
	approx(t, d1, want, 0.001, "s1 shared duration")
	approx(t, d2, want, 0.001, "s2 shared duration")
}

func TestBandwidthReleasedAfterCompletion(t *testing.T) {
	// A short and a long flow share a downlink; after the short one ends,
	// the long one speeds back up.
	e := NewEnv()
	recv := e.AddNode("recv", Mbps(10), Mbps(10))
	s1 := e.AddNode("s1", Mbps(10), Mbps(10))
	s2 := e.AddNode("s2", Mbps(10), Mbps(10))
	var dShort, dLong time.Duration
	e.Go("short", func() { e.Transfer(s1, recv, mb); dShort = e.Now() })
	e.Go("long", func() { e.Transfer(s2, recv, 3*mb); dLong = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Short: 1MB at 5 Mbps → t1 = 8·2^20/5e6 ≈ 1.678 s.
	t1 := float64(mb*8) / Mbps(5)
	approx(t, dShort, time.Duration(t1*float64(time.Second)), 0.001, "short flow")
	// Long: transferred t1·5e6 bits while sharing, remainder at 10 Mbps.
	rem := float64(3*mb*8) - t1*Mbps(5)
	want := t1 + rem/Mbps(10)
	approx(t, dLong, time.Duration(want*float64(time.Second)), 0.001, "long flow")
}

func TestManyUploadersOneProvider(t *testing.T) {
	// 16 trainers uploading 1.3 MB each into one 10 Mbps provider: the
	// provider's downlink serializes the aggregate, so everyone finishes
	// at ~16·S·8/10e6 seconds (the Fig. 1 P=1 upload regime).
	e := NewEnv()
	provider := e.AddNode("provider", Mbps(10), Mbps(10))
	size := int64(13 * mb / 10)
	const trainers = 16
	times := make([]time.Duration, trainers)
	for i := 0; i < trainers; i++ {
		i := i
		tr := e.AddNode("t"+string(rune('a'+i)), Mbps(10), Mbps(10))
		e.Go(tr.Name, func() {
			e.Transfer(tr, provider, size)
			times[i] = e.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(float64(trainers) * float64(size*8) / Mbps(10) * float64(time.Second))
	for i, d := range times {
		approx(t, d, want, 0.01, "trainer completion "+string(rune('a'+i)))
	}
}

func TestSleepAndNow(t *testing.T) {
	e := NewEnv()
	var at1, at2 time.Duration
	e.Go("sleeper", func() {
		e.Sleep(3 * time.Second)
		at1 = e.Now()
		e.Sleep(2 * time.Second)
		at2 = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != 3*time.Second || at2 != 5*time.Second {
		t.Fatalf("sleep times wrong: %v, %v", at1, at2)
	}
	// Negative sleeps are clamped to zero.
	e2 := NewEnv()
	e2.Go("neg", func() { e2.Sleep(-time.Second) })
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if e2.Now() != 0 {
		t.Fatalf("negative sleep advanced time to %v", e2.Now())
	}
}

func TestSelfTransferInstant(t *testing.T) {
	e := NewEnv()
	n := e.AddNode("n", Mbps(1), Mbps(1))
	e.Go("self", func() { e.Transfer(n, n, 100*mb) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 0 {
		t.Fatalf("self transfer took %v", e.Now())
	}
	if n.BytesSent != 100*mb || n.BytesReceived != 100*mb {
		t.Fatal("self transfer not accounted")
	}
}

func TestLatencyApplied(t *testing.T) {
	e := NewEnv()
	e.SetLatency(50 * time.Millisecond)
	a := e.AddNode("a", Mbps(8), Mbps(8))
	b := e.AddNode("b", Mbps(8), Mbps(8))
	e.Go("xfer", func() { e.Transfer(a, b, mb) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := 50*time.Millisecond + time.Duration(float64(mb*8)/Mbps(8)*float64(time.Second))
	approx(t, e.Now(), want, 0.001, "latency+transfer")
}

func TestByteAccounting(t *testing.T) {
	e := NewEnv()
	a := e.AddNode("a", Mbps(10), Mbps(10))
	b := e.AddNode("b", Mbps(10), Mbps(10))
	c := e.AddNode("c", Mbps(10), Mbps(10))
	e.Go("x1", func() { e.Transfer(a, b, 100) })
	e.Go("x2", func() { e.Transfer(a, c, 200) })
	e.Go("x3", func() { e.Transfer(b, c, 300) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.BytesSent != 300 || b.BytesReceived != 100 || c.BytesReceived != 500 || b.BytesSent != 300 {
		t.Fatalf("accounting wrong: a.sent=%d b.recv=%d b.sent=%d c.recv=%d",
			a.BytesSent, b.BytesReceived, b.BytesSent, c.BytesReceived)
	}
	sent := a.BytesSent + b.BytesSent + c.BytesSent
	recv := a.BytesReceived + b.BytesReceived + c.BytesReceived
	if sent != recv {
		t.Fatalf("bytes not conserved: sent=%d recv=%d", sent, recv)
	}
}

func TestSignal(t *testing.T) {
	e := NewEnv()
	sig := e.NewSignal()
	var wokenAt time.Duration
	e.Go("waiter", func() {
		sig.Wait()
		wokenAt = e.Now()
		sig.Wait() // already fired: returns immediately
	})
	e.Go("firer", func() {
		e.Sleep(7 * time.Second)
		sig.Fire()
		sig.Fire() // double fire is a no-op
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokenAt != 7*time.Second {
		t.Fatalf("waiter woke at %v", wokenAt)
	}
	if !sig.fired {
		t.Fatal("signal should report fired")
	}
}

func TestCounter(t *testing.T) {
	e := NewEnv()
	ctr := e.NewCounter(3)
	var wokenAt time.Duration
	e.Go("waiter", func() {
		ctr.Wait()
		wokenAt = e.Now()
		ctr.Wait() // already satisfied
	})
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Second
		e.Go("adder", func() {
			e.Sleep(d)
			ctr.Add()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokenAt != 3*time.Second {
		t.Fatalf("counter released at %v", wokenAt)
	}
	if ctr.Count() != 3 {
		t.Fatalf("count = %d", ctr.Count())
	}
}

func TestCounterWaitDeadline(t *testing.T) {
	e := NewEnv()
	ctr := e.NewCounter(2)
	var reachedEarly, reachedLate bool
	var wokeAt1, wokeAt2 time.Duration
	e.Go("waiter-early", func() {
		// Target reached (at 2s) before the 5s deadline.
		reachedEarly = ctr.WaitDeadline(5 * time.Second)
		wokeAt1 = e.Now()
	})
	e.Go("adder", func() {
		e.Sleep(time.Second)
		ctr.Add()
		e.Sleep(time.Second)
		ctr.Add()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reachedEarly || wokeAt1 != 2*time.Second {
		t.Fatalf("early waiter: reached=%v at %v", reachedEarly, wokeAt1)
	}

	// Second scenario: the deadline fires first.
	e2 := NewEnv()
	ctr2 := e2.NewCounter(2)
	e2.Go("waiter-late", func() {
		reachedLate = ctr2.WaitDeadline(time.Second)
		wokeAt2 = e2.Now()
	})
	e2.Go("slow-adder", func() {
		e2.Sleep(10 * time.Second)
		ctr2.Add()
		ctr2.Add() // after the waiter withdrew; must not wake anyone
	})
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if reachedLate || wokeAt2 != time.Second {
		t.Fatalf("late waiter: reached=%v at %v", reachedLate, wokeAt2)
	}
}

func TestCounterWaitDeadlineAlreadySatisfied(t *testing.T) {
	e := NewEnv()
	ctr := e.NewCounter(1)
	var ok, okPast bool
	e.Go("p", func() {
		ctr.Add()
		ok = ctr.WaitDeadline(time.Second) // already satisfied
		e.Sleep(2 * time.Second)
		okPast = e.NewCounter(1).WaitDeadline(time.Second) // deadline already past
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("satisfied counter should return true immediately")
	}
	if okPast {
		t.Fatal("past deadline should return false immediately")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEnv()
	sig := e.NewSignal()
	e.Go("stuck", func() { sig.Wait() })
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := NewEnv()
		recv := e.AddNode("recv", Mbps(10), Mbps(10))
		var times []time.Duration
		for i := 0; i < 8; i++ {
			src := e.AddNode("s"+string(rune('0'+i)), Mbps(10), Mbps(10))
			delay := time.Duration(i) * 100 * time.Millisecond
			e.Go(src.Name, func() {
				e.Sleep(delay)
				e.Transfer(src, recv, 2*mb)
				times = append(times, e.Now())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatal("different completion counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: run1[%d]=%v run2[%d]=%v", i, a[i], i, b[i])
		}
	}
}

func TestAddNodeValidation(t *testing.T) {
	e := NewEnv()
	e.AddNode("x", 1, 1)
	assertPanics(t, func() { e.AddNode("x", 1, 1) }, "duplicate node")
	assertPanics(t, func() { e.AddNode("y", 0, 1) }, "zero bandwidth")
}

func assertPanics(t *testing.T, fn func(), msg string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", msg)
		}
	}()
	fn()
}

func TestClockAnchorsVirtualTime(t *testing.T) {
	e := NewEnv()
	base := time.Unix(0, 0).UTC()
	clock := e.Clock(base)
	if got := clock(); !got.Equal(base) {
		t.Fatalf("clock before run = %v, want %v", got, base)
	}
	var during time.Time
	e.Go("sleeper", func() {
		e.Sleep(7 * time.Second)
		during = clock()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := base.Add(7 * time.Second); !during.Equal(want) {
		t.Fatalf("clock mid-run = %v, want %v", during, want)
	}
	if got := clock(); !got.Equal(base.Add(7 * time.Second)) {
		t.Fatalf("clock after run = %v", got)
	}
}

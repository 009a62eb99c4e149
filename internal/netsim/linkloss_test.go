package netsim

import (
	"testing"
	"time"
)

// A 1 MB transfer over a 8 Mbps link takes 1 virtual second. With the
// sender's link degraded to one tenth for the first second, the first
// 100 KB-worth of seconds transfer slowly: the flow moves 0.1 MB in the
// window, leaving 0.9 MB at full rate afterwards → 1s + 0.9s.
func TestLinkLossSlowsTransfer(t *testing.T) {
	env := NewEnv()
	a := env.AddNode("a", Mbps(8), Mbps(8))
	b := env.AddNode("b", Mbps(8), Mbps(8))
	if err := env.ScheduleLinkLoss(LossWindow{Node: "a", From: 0, To: time.Second, Factor: 0.1}); err != nil {
		t.Fatal(err)
	}
	var done time.Duration
	env.Go("sender", func() {
		env.Transfer(a, b, 1_000_000)
		done = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := 1900 * time.Millisecond
	if diff := done - want; diff < -10*time.Millisecond || diff > 10*time.Millisecond {
		t.Fatalf("transfer finished at %v, want ~%v", done, want)
	}
}

// Factor 0 severs the link: the transfer makes no progress inside the
// window and completes exactly one window-length late.
func TestLinkLossSeveredLinkStallsAndResumes(t *testing.T) {
	env := NewEnv()
	a := env.AddNode("a", Mbps(8), Mbps(8))
	b := env.AddNode("b", Mbps(8), Mbps(8))
	if err := env.ScheduleLinkLoss(LossWindow{Node: "b", From: 200 * time.Millisecond, To: 700 * time.Millisecond, Factor: 0}); err != nil {
		t.Fatal(err)
	}
	var done time.Duration
	env.Go("sender", func() {
		env.Transfer(a, b, 1_000_000)
		done = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := 1500 * time.Millisecond
	if diff := done - want; diff < -10*time.Millisecond || diff > 10*time.Millisecond {
		t.Fatalf("transfer finished at %v, want ~%v (1s + 500ms outage)", done, want)
	}
}

// A transfer outside the window is untouched, and determinism holds: two
// identical runs finish at identical virtual times.
func TestLinkLossWindowIsDeterministicAndScoped(t *testing.T) {
	run := func() (time.Duration, time.Duration) {
		env := NewEnv()
		a := env.AddNode("a", Mbps(80), Mbps(80))
		b := env.AddNode("b", Mbps(80), Mbps(80))
		if err := env.ScheduleLinkLoss(LossWindow{Node: "a", From: time.Second, To: 2 * time.Second, Factor: 0.5}); err != nil {
			t.Fatal(err)
		}
		var early, late time.Duration
		env.Go("early", func() {
			env.Transfer(a, b, 100_000) // 10ms at 80 Mbps, done before the window
			early = env.Now()
		})
		env.Go("late", func() {
			env.Sleep(3 * time.Second) // starts after the window closed
			start := env.Now()
			env.Transfer(a, b, 100_000)
			late = env.Now() - start
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return early, late
	}
	early1, late1 := run()
	early2, late2 := run()
	if early1 != early2 || late1 != late2 {
		t.Fatalf("non-deterministic: (%v, %v) vs (%v, %v)", early1, late1, early2, late2)
	}
	if early1 > 20*time.Millisecond {
		t.Fatalf("pre-window transfer took %v, should be unaffected", early1)
	}
	if late1 > 20*time.Millisecond {
		t.Fatalf("post-window transfer took %v, capacity was not restored", late1)
	}
}

// ScheduleLinkLoss validates the window it is handed: the node must
// exist, the window must be non-empty and the factor must lie in [0, 1).
func TestScheduleLinkLossRejectsBadWindows(t *testing.T) {
	for _, w := range []LossWindow{
		{Node: "ghost", From: 0, To: time.Second, Factor: 0.5},
		{Node: "a", From: 2 * time.Second, To: time.Second, Factor: 0.5},
		{Node: "a", From: -time.Second, To: time.Second, Factor: 0.5},
		{Node: "a", From: 0, To: time.Second, Factor: 1},
		{Node: "a", From: 0, To: time.Second, Factor: -0.1},
	} {
		env := NewEnv()
		env.AddNode("a", Mbps(8), Mbps(8))
		if err := env.ScheduleLinkLoss(w); err == nil {
			t.Errorf("ScheduleLinkLoss(%+v) accepted", w)
		}
	}
}

package scenario

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func mustParse(t *testing.T, s string) *Plan {
	t.Helper()
	p, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return p
}

func TestParseEmpty(t *testing.T) {
	for _, s := range []string{"", "   "} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !p.Empty() {
			t.Fatalf("Parse(%q) not empty", s)
		}
		if p.String() != "" {
			t.Fatalf("empty plan renders %q", p.String())
		}
	}
	var nilPlan *Plan
	if !nilPlan.Empty() || nilPlan.String() != "" || nilPlan.Events() != nil {
		t.Fatal("nil plan is not empty/inert")
	}
}

func TestParseEventShapes(t *testing.T) {
	cases := []struct {
		in   string
		want Event
	}{
		{"depart:ipfs-03@iter1", Event{Kind: Depart, Node: "ipfs-03", Window: Window{FromIter: 1, ToIter: 1}}},
		{"crash:trainer-00@iter0", Event{Kind: Crash, Node: "trainer-00", Window: Window{}}},
		{"rejoin:trainer-00@iter2", Event{Kind: Rejoin, Node: "trainer-00", Window: Window{FromIter: 2, ToIter: 2}}},
		{"recover:agg-p0-0@iter3", Event{Kind: Rejoin, Node: "agg-p0-0", Window: Window{FromIter: 3, ToIter: 3}}},
		{"slow:ipfs-00@iter1..2:5ms", Event{Kind: Slow, Node: "ipfs-00",
			Window: Window{FromIter: 1, ToIter: 2}, Delay: 5 * time.Millisecond}},
		{"slow:trainer-01@1s..2s:0.25", Event{Kind: Slow, Node: "trainer-01",
			Window: Window{Timed: true, From: time.Second, To: 2 * time.Second}, Factor: 0.25}},
		{"flaky:ipfs-01@iter2..4:0.5", Event{Kind: Flaky, Node: "ipfs-01",
			Window: Window{FromIter: 2, ToIter: 4}, Prob: 0.5}},
		{"corrupt:trainer-02@iter1..3", Event{Kind: Corrupt, Node: "trainer-02", Window: Window{FromIter: 1, ToIter: 3}}},
		{"late:trainer-03@iter4", Event{Kind: Late, Node: "trainer-03", Window: Window{FromIter: 4, ToIter: 4}}},
		{"skew:trainer-03@iter4", Event{Kind: Late, Node: "trainer-03", Window: Window{FromIter: 4, ToIter: 4}}},
	}
	for _, tc := range cases {
		p := mustParse(t, tc.in)
		evs := p.Events()
		if len(evs) != 1 {
			t.Fatalf("Parse(%q): %d events", tc.in, len(evs))
		}
		got := evs[0]
		if got.Kind != tc.want.Kind || got.Node != tc.want.Node || got.Window != tc.want.Window ||
			got.Delay != tc.want.Delay || got.Factor != tc.want.Factor || got.Prob != tc.want.Prob {
			t.Fatalf("Parse(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParsePartitionGroups(t *testing.T) {
	evs := mustParse(t, "partition:mainline|ipfs-02+ipfs-03|trainer-05@iter2..3").Events()
	if len(evs) != 1 || evs[0].Kind != Partition {
		t.Fatalf("events %+v", evs)
	}
	w := evs[0]
	if w.Window.FromIter != 2 || w.Window.ToIter != 3 {
		t.Fatalf("window %v", w.Window)
	}
	if len(w.Groups) != 3 || w.Groups[0][0] != "mainline" {
		t.Fatalf("groups %v", w.Groups)
	}
	iso := w.Isolated()
	if len(iso) != 3 || iso[0] != "ipfs-02" || iso[1] != "ipfs-03" || iso[2] != "trainer-05" {
		t.Fatalf("isolated %v", iso)
	}
}

// TestParsePositionalErrors pins the *ParseError contract: the byte
// offset locates the offending token in the input, and the token itself
// is carried verbatim.
func TestParsePositionalErrors(t *testing.T) {
	cases := []struct {
		in        string
		offset    int
		token     string
		msgSubstr string
	}{
		{"bogus", 0, "bogus", "want KIND:"},
		{"warp:ipfs-00@iter1", 0, "warp:ipfs-00@iter1", "unknown kind"},
		{"depart:ipfs-00@iter1,crash:bad name@iter2", 21, "crash:bad name@iter2", "bad node name"},
		{"depart:ipfs-00@iter1, depart:ipfs-00@iter1", 22, "depart:ipfs-00@iter1", "duplicate membership"},
		{"slow:ipfs-00@iter1..3:5ms,slow:ipfs-00@iter2:1ms", 26, "slow:ipfs-00@iter2:1ms", "overlaps"},
		{"partition:a|b@iter1..2,partition:c|d@iter2..3", 23, "partition:c|d@iter2..3", "overlaps"},
		{"depart:ipfs-00@iter1..2", 0, "depart:ipfs-00@iter1..2", "single iteration"},
		{"slow:ipfs-00@iter1", 0, "slow:ipfs-00@iter1", "slow wants"},
		{"slow:ipfs-00@1s..2s:1.5", 0, "slow:ipfs-00@1s..2s:1.5", "capacity factor"},
		{"flaky:ipfs-00@iter1:2", 0, "flaky:ipfs-00@iter1:2", "probability"},
		{"corrupt:t@iter1:x", 0, "corrupt:t@iter1:x", "takes no argument"},
		{"partition:solo@iter1", 0, "partition:solo@iter1", "at least two"},
		{"partition:a+b|a@iter1", 0, "partition:a+b|a@iter1", "two partition groups"},
		{"crash:ipfs-00@iter-1", 0, "crash:ipfs-00@iter-1", "bad iteration"},
		{"crash:ipfs-00@2s..1s", 0, "crash:ipfs-00@2s..1s", "bad window end"},
		// What the deleted churn/fault parsers rejected stays rejected.
		{"crash", 0, "crash", "want KIND:"},
		{"depart:ipfs-03", 0, "depart:ipfs-03", "NODE@WINDOW"},
		{"depart:@iter1", 0, "depart:@iter1", "bad node name"},
		{"depart:ipfs-03@round1", 0, "depart:ipfs-03@round1", "want @iterN"},
		{"crash:node1@2", 0, "crash:node1@2", "want @iterN"},
		{"crash:node1@iter2:extra", 0, "crash:node1@iter2:extra", "takes no argument"},
		{"slow:node1@iter2:fast", 0, "slow:node1@iter2:fast", "positive duration"},
		{"flaky:node1@iter2:1.5", 0, "flaky:node1@iter2:1.5", "probability"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.in)
		if err == nil {
			t.Fatalf("Parse(%q) succeeded", tc.in)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("Parse(%q): %T is not *ParseError", tc.in, err)
		}
		if pe.Offset != tc.offset || pe.Token != tc.token {
			t.Fatalf("Parse(%q): error at offset %d token %q, want %d %q",
				tc.in, pe.Offset, pe.Token, tc.offset, tc.token)
		}
		if !strings.Contains(pe.Msg, tc.msgSubstr) {
			t.Fatalf("Parse(%q): msg %q lacks %q", tc.in, pe.Msg, tc.msgSubstr)
		}
	}
}

// TestStringRoundTrip pins Parse∘String = identity on parsed plans.
func TestStringRoundTrip(t *testing.T) {
	plans := []string{
		"depart:ipfs-03@iter1",
		"crash:trainer-01@iter1,rejoin:trainer-01@iter3",
		"slow:ipfs-00@iter1..2:5ms,flaky:ipfs-01@iter3:0.5",
		"slow:trainer-01@1s..2s:0.25",
		"partition:mainline|ipfs-02+ipfs-03@iter2..3",
		"partition:mainline|ipfs-02@400ms..1.2s",
		"corrupt:trainer-02@iter1..3,late:trainer-03@iter4",
		"depart:ipfs-03@iter1,partition:trainer-00|ipfs-04@iter2..3,corrupt:trainer-01@iter2",
		// Every plan the deleted churn/fault parsers were handed (Makefile,
		// README, iplsbench and the tests) is a plan in this grammar.
		"depart:ipfs-03@iter1,crash:agg-p0-0@iter1,crash:trainer-05@iter1,rejoin:trainer-05@iter2,rejoin:agg-p0-0@iter3",
		"depart:ipfs-03@iter2,crash:agg-p0-0@iter1,crash:t5@iter1,rejoin:t5@iter3",
		"crash:ipfs-01@iter2,recover:ipfs-01@iter4,slow:ipfs-00@iter1:50ms,flaky:ipfs-02@iter0:0.3",
		"crash:node1@iter2, recover:node1@iter4,slow:node0@iter1:50ms,flaky:node2@iter0:0.3",
		"depart:ipfs-03@iter0,crash:ipfs-02@iter0,crash:agg-p0-0@iter0,rejoin:ipfs-02@iter1,rejoin:ipfs-03@iter1,rejoin:trainer-05@iter1",
		"depart:ipfs-03@iter0,crash:agg-p0-0@iter0,crash:trainer-06@iter0,rejoin:trainer-07@iter0",
		"crash:ipfs-04@iter1,recover:ipfs-04@iter3,crash:t5@iter1,rejoin:t5@iter2",
	}
	for _, in := range plans {
		p := mustParse(t, in)
		canon := p.String()
		p2 := mustParse(t, canon)
		if p2.String() != canon {
			t.Fatalf("round trip diverges: %q -> %q -> %q", in, canon, p2.String())
		}
		a, b := p.Events(), p2.Events()
		if len(a) != len(b) {
			t.Fatalf("%q: event count %d != %d", in, len(a), len(b))
		}
		for i := range a {
			if a[i].Kind != b[i].Kind || a[i].Node != b[i].Node || a[i].Window != b[i].Window {
				t.Fatalf("%q: event %d %+v != %+v", in, i, a[i], b[i])
			}
		}
	}
	// Aliases canonicalize: recover -> rejoin, skew -> late.
	if got := mustParse(t, "recover:a@iter1,skew:b@iter2").String(); got != "rejoin:a@iter1,late:b@iter2" {
		t.Fatalf("alias canonicalization: %q", got)
	}
}

func TestCompileLossWindows(t *testing.T) {
	p := mustParse(t, "slow:trainer-01@1s..2s:0.25,partition:mainline|ipfs-02+ipfs-03@400ms..1.2s,slow:ipfs-00@iter1:1ms")
	ws := p.LossWindows()
	if len(ws) != 3 {
		t.Fatalf("%d loss windows, want 3 (iteration slow excluded)", len(ws))
	}
	if ws[0].Node != "trainer-01" || ws[0].Factor != 0.25 {
		t.Fatalf("slow window %+v", ws[0])
	}
	for i, node := range []string{"ipfs-02", "ipfs-03"} {
		w := ws[1+i]
		if w.Node != node || w.Factor != 0 || w.From != 400*time.Millisecond || w.To != 1200*time.Millisecond {
			t.Fatalf("partition window %d %+v", i, w)
		}
	}
}

// Iteration windows are inclusive at both ends; a timed window covers no
// iteration.
func TestWindowContainsIter(t *testing.T) {
	w := mustParse(t, "corrupt:trainer-02@iter1..3").Events()[0].Window
	for iter, want := range map[int]bool{0: false, 1: true, 3: true, 4: false} {
		if got := w.ContainsIter(iter); got != want {
			t.Fatalf("%v.ContainsIter(%d) = %v, want %v", w, iter, got, want)
		}
	}
	if timed := mustParse(t, "slow:ipfs-00@0s..2s:0.5").Events()[0].Window; timed.ContainsIter(0) {
		t.Fatal("timed window contains an iteration")
	}
}

// FuzzParseScenario holds the parser's core property under arbitrary
// input: Parse never panics, and on success String() re-parses to the
// same canonical form (Parse∘String is a fixpoint).
func FuzzParseScenario(f *testing.F) {
	seeds := []string{
		"",
		"depart:ipfs-03@iter1",
		"crash:trainer-01@iter1,rejoin:trainer-01@iter3",
		"slow:ipfs-00@iter1..2:5ms,flaky:ipfs-01@iter3:0.5",
		"slow:trainer-01@1s..2s:0.25",
		"partition:mainline|ipfs-02+ipfs-03@iter2..3",
		"corrupt:trainer-02@iter1..3,late:trainer-03@iter4",
		"recover:a@iter1,skew:b@iter2",
		"partition:a|b@400ms..1.2s",
		"slow:x@iter1:bogus",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		p, err := Parse(in)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse(%q): %T is not *ParseError", in, err)
			}
			if pe.Offset < 0 || pe.Offset > len(in) {
				t.Fatalf("Parse(%q): offset %d out of range", in, pe.Offset)
			}
			return
		}
		canon := p.String()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q (of %q) does not re-parse: %v", canon, in, err)
		}
		if again := p2.String(); again != canon {
			t.Fatalf("String not a fixpoint: %q -> %q -> %q", in, canon, again)
		}
	})
}

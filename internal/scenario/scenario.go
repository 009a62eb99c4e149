// Package scenario is the fault-scenario grammar: the one plan
// representation and parser for everything the reproduction can inject —
// storage membership churn, transient storage faults, simulated link
// degradation, and the protocol-level faults (Byzantine uploads, late
// trainers, network partitions) that the graceful-degradation paths in
// core exercise. A plan is a comma-separated event list:
//
//	depart:ipfs-03@iter1,partition:trainer-00|ipfs-04@iter2..3,corrupt:trainer-01@iter2
//
// core.ScenarioRunner walks a plan's iteration-window events round by
// round and calls the storage network's injectors directly; the
// discrete-event simulator takes the timed windows as netsim.LossWindows
// and the membership events as they are. Parse errors are positional
// (ParseError carries the byte offset and offending token) and String
// renders the canonical form, so Parse∘String is the identity on parsed
// plans.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind names a scenario event type.
type Kind string

// Event kinds. Depart/Crash/Rejoin are the membership-churn kinds
// (storage nodes, aggregators and trainers); Slow and Flaky degrade
// individual nodes; Partition splits the network into isolated
// groups for a window; Corrupt and Late are protocol-level trainer
// faults handled by core's Byzantine and quorum paths.
const (
	Depart    Kind = "depart"
	Crash     Kind = "crash"
	Rejoin    Kind = "rejoin"
	Slow      Kind = "slow"
	Flaky     Kind = "flaky"
	Partition Kind = "partition"
	Corrupt   Kind = "corrupt"
	Late      Kind = "late"
)

// Window is when an event is in force: either an inclusive iteration
// range [FromIter, ToIter] of a multi-round run, or — for the
// virtual-time simulator — a half-open duration window [From, To).
type Window struct {
	Timed            bool
	FromIter, ToIter int           // iteration windows (Timed == false)
	From, To         time.Duration // virtual-time windows (Timed == true)
}

// ContainsIter reports whether an iteration window covers iter.
func (w Window) ContainsIter(iter int) bool {
	return !w.Timed && w.FromIter <= iter && iter <= w.ToIter
}

// String renders the window in the plan grammar: "iter3", "iter3..5" or
// "2s..6s".
func (w Window) String() string {
	if w.Timed {
		return w.From.String() + ".." + w.To.String()
	}
	if w.FromIter == w.ToIter {
		return "iter" + strconv.Itoa(w.FromIter)
	}
	return fmt.Sprintf("iter%d..%d", w.FromIter, w.ToIter)
}

func (w Window) overlaps(o Window) bool {
	if w.Timed != o.Timed {
		return false
	}
	if w.Timed {
		return w.From < o.To && o.From < w.To
	}
	return w.FromIter <= o.ToIter && o.FromIter <= w.ToIter
}

// Event is one parsed scenario event. Which fields are meaningful
// depends on Kind: Node for everything but Partition, Groups for
// Partition, Delay for iteration-window Slow, Factor for timed Slow,
// Prob for Flaky.
type Event struct {
	Kind   Kind
	Node   string
	Groups [][]string // partition groups; Groups[0] is the mainline side
	Window Window
	Delay  time.Duration // slow (iteration window): per-op storage delay
	Factor float64       // slow (timed window): bandwidth scale in [0, 1)
	Prob   float64       // flaky: per-op failure probability in [0, 1]
}

// String renders the event in the canonical plan grammar.
func (ev Event) String() string {
	switch ev.Kind {
	case Partition:
		groups := make([]string, len(ev.Groups))
		for i, g := range ev.Groups {
			groups[i] = strings.Join(g, "+")
		}
		return fmt.Sprintf("partition:%s@%s", strings.Join(groups, "|"), ev.Window)
	case Slow:
		if ev.Window.Timed {
			return fmt.Sprintf("slow:%s@%s:%s", ev.Node, ev.Window, formatFloat(ev.Factor))
		}
		return fmt.Sprintf("slow:%s@%s:%s", ev.Node, ev.Window, ev.Delay)
	case Flaky:
		return fmt.Sprintf("flaky:%s@%s:%s", ev.Node, ev.Window, formatFloat(ev.Prob))
	default:
		return fmt.Sprintf("%s:%s@%s", ev.Kind, ev.Node, ev.Window)
	}
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Plan is a parsed scenario: an ordered event list.
type Plan struct {
	events []Event
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.events) == 0 }

// Events returns a copy of the plan's events in input order.
func (p *Plan) Events() []Event {
	if p == nil {
		return nil
	}
	out := make([]Event, len(p.events))
	copy(out, p.events)
	return out
}

// String renders the canonical plan, parseable back into an equal plan.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	toks := make([]string, len(p.events))
	for i, ev := range p.events {
		toks[i] = ev.String()
	}
	return strings.Join(toks, ",")
}

// ParseError is a positional scenario parse error: the byte offset of
// the offending token in the input, the token itself, and what was
// wrong with it.
type ParseError struct {
	Offset int
	Token  string
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("scenario: offset %d: %q: %s", e.Offset, e.Token, e.Msg)
}

func errAt(off int, tok, format string, args ...any) error {
	return &ParseError{Offset: off, Token: tok, Msg: fmt.Sprintf(format, args...)}
}

// Parse parses a comma-separated scenario plan. Grammar per event
// (windows are "iterN", "iterN..M" inclusive, or "D1..D2" virtual-time
// durations):
//
//	depart:NODE@iterN            permanent storage departure (blocks lost)
//	crash:NODE@iterN             node/role goes down (transient)
//	rejoin:NODE@iterN            crashed/departed participant returns
//	slow:NODE@iterN..M:DUR       storage node serves ops DUR slower
//	slow:NODE@D1..D2:FACTOR      simulated links run at FACTOR capacity
//	flaky:NODE@iterN..M:P        storage ops fail with probability P
//	partition:G1|G2@iterN..M     network split; groups are +-joined names,
//	                             G1 is the mainline side (also D1..D2)
//	corrupt:TRAINER@iterN[..M]   trainer uploads tampered gradients
//	late:TRAINER@iterN[..M]      trainer misses t_train, delta folds late
//
// "recover" is accepted as an alias of rejoin, "skew" of late. An empty
// string parses to an empty plan. Errors are *ParseError values with
// the byte offset of the offending token.
func Parse(s string) (*Plan, error) {
	plan := &Plan{}
	if strings.TrimSpace(s) == "" {
		return plan, nil
	}
	off := 0
	for _, raw := range strings.Split(s, ",") {
		tok := strings.TrimSpace(raw)
		tokOff := off
		if tok != "" {
			tokOff += strings.Index(raw, tok)
		}
		ev, err := parseEvent(tok, tokOff)
		if err != nil {
			return nil, err
		}
		if err := checkAgainst(plan.events, ev, tokOff, tok); err != nil {
			return nil, err
		}
		plan.events = append(plan.events, ev)
		off += len(raw) + 1
	}
	return plan, nil
}

// checkAgainst rejects contradictory composition: two membership events
// for the same node at the same iteration, overlapping slow/flaky
// windows on one node (the clearing edge of one would clobber the
// other), and overlapping partition windows (only one split can be in
// force at a time).
func checkAgainst(prev []Event, ev Event, off int, tok string) error {
	for _, p := range prev {
		switch ev.Kind {
		case Depart, Crash, Rejoin:
			if (p.Kind == Depart || p.Kind == Crash || p.Kind == Rejoin) &&
				p.Node == ev.Node && p.Window.FromIter == ev.Window.FromIter {
				return errAt(off, tok, "duplicate membership event for %s@iter%d (already %s)",
					ev.Node, ev.Window.FromIter, p.Kind)
			}
		case Slow, Flaky:
			if p.Kind == ev.Kind && p.Node == ev.Node && p.Window.overlaps(ev.Window) {
				return errAt(off, tok, "%s window for %s overlaps %s", ev.Kind, ev.Node, p.Window)
			}
		case Partition:
			if p.Kind == Partition && p.Window.overlaps(ev.Window) {
				return errAt(off, tok, "partition window overlaps %s", p.Window)
			}
		case Corrupt, Late:
			if p.Kind == ev.Kind && p.Node == ev.Node && p.Window.overlaps(ev.Window) {
				return errAt(off, tok, "%s window for %s overlaps %s", ev.Kind, ev.Node, p.Window)
			}
		}
	}
	return nil
}

func parseEvent(tok string, off int) (Event, error) {
	kindStr, rest, ok := strings.Cut(tok, ":")
	if !ok || kindStr == "" {
		return Event{}, errAt(off, tok, "want KIND:...")
	}
	kind := Kind(kindStr)
	switch kind {
	case "recover":
		kind = Rejoin
	case "skew":
		kind = Late
	}

	if kind == Partition {
		groupsStr, winStr, ok := strings.Cut(rest, "@")
		if !ok {
			return Event{}, errAt(off, tok, "want partition:G1|G2@WINDOW")
		}
		win, err := parseWindow(winStr, off, tok)
		if err != nil {
			return Event{}, err
		}
		var groups [][]string
		seen := make(map[string]bool)
		for _, g := range strings.Split(groupsStr, "|") {
			var members []string
			for _, m := range strings.Split(g, "+") {
				if !validName(m) {
					return Event{}, errAt(off, tok, "bad group member %q", m)
				}
				if seen[m] {
					return Event{}, errAt(off, tok, "node %s in two partition groups", m)
				}
				seen[m] = true
				members = append(members, m)
			}
			groups = append(groups, members)
		}
		if len(groups) < 2 {
			return Event{}, errAt(off, tok, "partition needs at least two |-separated groups")
		}
		return Event{Kind: Partition, Groups: groups, Window: win}, nil
	}

	node, winArg, ok := strings.Cut(rest, "@")
	if !ok {
		return Event{}, errAt(off, tok, "want %s:NODE@WINDOW", kind)
	}
	if !validName(node) {
		return Event{}, errAt(off, tok, "bad node name %q", node)
	}
	winStr, arg, hasArg := strings.Cut(winArg, ":")
	win, err := parseWindow(winStr, off, tok)
	if err != nil {
		return Event{}, err
	}
	ev := Event{Kind: kind, Node: node, Window: win}

	switch kind {
	case Depart, Crash, Rejoin:
		if hasArg {
			return Event{}, errAt(off, tok, "%s takes no argument", kind)
		}
		if win.Timed || win.FromIter != win.ToIter {
			return Event{}, errAt(off, tok, "%s wants a single iteration (@iterN)", kind)
		}
	case Slow:
		if !hasArg {
			return Event{}, errAt(off, tok, "slow wants :DUR (iteration window) or :FACTOR (timed window)")
		}
		if win.Timed {
			f, err := strconv.ParseFloat(arg, 64)
			if err != nil || f < 0 || f >= 1 {
				return Event{}, errAt(off, tok, "timed slow wants a capacity factor in [0, 1), got %q", arg)
			}
			ev.Factor = f
		} else {
			d, err := time.ParseDuration(arg)
			if err != nil || d <= 0 {
				return Event{}, errAt(off, tok, "slow wants a positive duration, got %q", arg)
			}
			ev.Delay = d
		}
	case Flaky:
		if win.Timed {
			return Event{}, errAt(off, tok, "flaky wants an iteration window")
		}
		if !hasArg {
			return Event{}, errAt(off, tok, "flaky wants :P")
		}
		p, err := strconv.ParseFloat(arg, 64)
		if err != nil || p < 0 || p > 1 {
			return Event{}, errAt(off, tok, "flaky wants a probability in [0, 1], got %q", arg)
		}
		ev.Prob = p
	case Corrupt, Late:
		if hasArg {
			return Event{}, errAt(off, tok, "%s takes no argument", kind)
		}
		if win.Timed {
			return Event{}, errAt(off, tok, "%s wants an iteration window", kind)
		}
	default:
		return Event{}, errAt(off, tok, "unknown kind %q", kindStr)
	}
	return ev, nil
}

func parseWindow(s string, off int, tok string) (Window, error) {
	if rest, ok := strings.CutPrefix(s, "iter"); ok {
		fromStr, toStr, ranged := strings.Cut(rest, "..")
		from, err := strconv.Atoi(fromStr)
		if err != nil || from < 0 {
			return Window{}, errAt(off, tok, "bad iteration %q", fromStr)
		}
		to := from
		if ranged {
			to, err = strconv.Atoi(toStr)
			if err != nil || to < from {
				return Window{}, errAt(off, tok, "bad iteration range %q", s)
			}
		}
		return Window{FromIter: from, ToIter: to}, nil
	}
	fromStr, toStr, ok := strings.Cut(s, "..")
	if !ok {
		return Window{}, errAt(off, tok, "want @iterN, @iterN..M or @D1..D2, got %q", s)
	}
	from, err := time.ParseDuration(fromStr)
	if err != nil || from < 0 {
		return Window{}, errAt(off, tok, "bad window start %q", fromStr)
	}
	to, err := time.ParseDuration(toStr)
	if err != nil || to <= from {
		return Window{}, errAt(off, tok, "bad window end %q", toStr)
	}
	return Window{Timed: true, From: from, To: to}, nil
}

// validName accepts the participant-naming alphabet (trainer-00,
// agg-p0-0, ipfs-03): letters, digits, dot, underscore and dash. The
// strict charset keeps every name representable in the grammar, so
// String∘Parse round-trips.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

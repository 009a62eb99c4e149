package obs

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Live health, read straight off the span stream. The paper's schedule
// is per iteration (§III-D), so both signals need no baseline and no
// sliding window: a round whose spans stop ending is stuck, and a
// trainer that misses t_train is late relative to its own iteration's
// peers. The Watchdog is a SpanSink that remembers the newest span end
// and the newest few iterations' phase durations; every verdict is
// computed on read, so there is no evaluation loop to drive and
// simulated runs judge in virtual time exactly as live runs judge in
// wall time.

// StuckRound names the stuck-round verdict in HealthStatus.Firing.
const StuckRound = "stuck_round"

const (
	// stragglerFactor flags a span lasting more than this multiple of
	// the median of its (session, iteration, phase) crowd.
	stragglerFactor = 3
	// minCrowd is the smallest crowd anyone can stand out from: with two
	// trainers there is no median worth comparing against.
	minCrowd = 5
	// minStragglerSeconds is the shortest span that can be a straggler:
	// below it, scheduler and GC pauses alone stretch a microsecond-scale
	// span past stragglerFactor times its crowd's median.
	minStragglerSeconds = 0.010
	// keepIters is how many of the newest (session, iteration) traces
	// the watchdog remembers phase durations for.
	keepIters = 4
)

// Straggler is one actor whose span in some phase of an iteration lasted
// more than stragglerFactor times the median of that phase's spans in
// the same iteration (and at least minStragglerSeconds).
type Straggler struct {
	Actor string `json:"actor"`
	Phase string `json:"phase"`
	Iter  int    `json:"iter"`
	// LastSeconds is the actor's span duration; MedianSeconds the median
	// of its crowd; Ratio their quotient.
	LastSeconds   float64   `json:"last_seconds"`
	MedianSeconds float64   `json:"median_seconds"`
	Ratio         float64   `json:"ratio"`
	At            time.Time `json:"at"`
}

// HealthStatus is the document served at /alerts: the firing verdicts
// (at most StuckRound) and the stragglers of the remembered iterations.
type HealthStatus struct {
	GeneratedAt time.Time   `json:"generated_at"`
	Firing      []string    `json:"firing,omitempty"`
	Stragglers  []Straggler `json:"stragglers,omitempty"`
}

// iterKey names one trace. Keys order by iteration, then session, so
// "newest" is the same whatever order spans arrive in.
type iterKey struct {
	session string
	iter    int
}

func (k iterKey) less(o iterKey) bool {
	return cmp.Or(cmp.Compare(k.iter, o.iter), cmp.Compare(k.session, o.session)) < 0
}

// phaseSpan is what the straggler verdict needs of one span.
type phaseSpan struct {
	actor   string
	seconds float64
	end     time.Time
}

// Watchdog turns the span stream into the stuck-round and straggler
// verdicts. Safe for concurrent use.
type Watchdog struct {
	stuckAfter time.Duration

	mu      sync.Mutex
	lastEnd time.Time
	maxGap  time.Duration
	phases  map[string]struct{}
	iters   map[iterKey]map[string][]phaseSpan // trace → phase → spans
}

var _ SpanSink = (*Watchdog)(nil)

// NewWatchdog creates a watchdog that reports StuckRound once no span
// has ended for stuckAfter; <= 0 disables the stuck verdict.
func NewWatchdog(stuckAfter time.Duration) *Watchdog {
	return &Watchdog{
		stuckAfter: stuckAfter,
		phases:     make(map[string]struct{}),
		iters:      make(map[iterKey]map[string][]phaseSpan),
	}
}

// EmitSpan records a completed span: its end is a heartbeat, and an
// actor's span joins its iteration's phase crowd. Spans of a trace older
// than every remembered one are dropped once keepIters traces are held.
func (w *Watchdog) EmitSpan(s Span) {
	if s.End.IsZero() {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if s.End.After(w.lastEnd) {
		if !w.lastEnd.IsZero() {
			w.maxGap = max(w.maxGap, s.End.Sub(w.lastEnd))
		}
		w.lastEnd = s.End
	}
	w.phases[s.Name] = struct{}{}
	if s.Actor == "" {
		return
	}
	key := iterKey{s.Context.Session, s.Context.Iter}
	byPhase, ok := w.iters[key]
	if !ok {
		byPhase = make(map[string][]phaseSpan)
		w.iters[key] = byPhase
		if len(w.iters) > keepIters {
			oldest := key
			for k := range w.iters {
				if k.less(oldest) {
					oldest = k
				}
			}
			delete(w.iters, oldest)
			if oldest == key {
				return
			}
		}
	}
	byPhase[s.Name] = append(byPhase[s.Name], phaseSpan{s.Actor, s.Duration().Seconds(), s.End})
}

// stuck reports the current silence when it is past the deadline.
// Caller holds w.mu.
func (w *Watchdog) stuck(now time.Time) (time.Duration, bool) {
	if w.stuckAfter <= 0 || w.lastEnd.IsZero() {
		return 0, false
	}
	gap := now.Sub(w.lastEnd)
	return gap, gap > w.stuckAfter
}

// Check reports whether rounds are progressing: nil before the first
// span ends and while spans keep ending within the deadline; an error
// once the session looks stuck as of now. It has the signature of a
// Readiness component check.
func (w *Watchdog) Check(now time.Time) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if gap, stuck := w.stuck(now); stuck {
		return fmt.Errorf("obs: no span ended for %v (deadline %v)", gap.Round(time.Millisecond), w.stuckAfter)
	}
	return nil
}

// MaxGap reports the largest gap between consecutive span ends seen so
// far, in arrival order; a silence counts once a later span closes it.
func (w *Watchdog) MaxGap() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.maxGap
}

// Phases reports how many distinct span names have been seen.
func (w *Watchdog) Phases() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.phases)
}

// Status assembles the /alerts document as of now. It depends only on
// the multiset of spans seen, not on their arrival order.
func (w *Watchdog) Status(now time.Time) HealthStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := HealthStatus{GeneratedAt: now}
	if _, stuck := w.stuck(now); stuck {
		st.Firing = []string{StuckRound}
	}
	for key, byPhase := range w.iters {
		for phase, spans := range byPhase {
			st.Stragglers = append(st.Stragglers, stragglers(key.iter, phase, spans)...)
		}
	}
	slices.SortFunc(st.Stragglers, func(a, b Straggler) int {
		return cmp.Or(cmp.Compare(b.Ratio, a.Ratio), cmp.Compare(a.Actor, b.Actor),
			cmp.Compare(a.Phase, b.Phase), cmp.Compare(a.Iter, b.Iter), a.At.Compare(b.At))
	})
	return st
}

// stragglers flags each actor whose longest span in one iteration's
// phase crowd lasts more than stragglerFactor times the crowd's median.
func stragglers(iter int, phase string, spans []phaseSpan) []Straggler {
	if len(spans) < minCrowd {
		return nil
	}
	secs := make([]float64, len(spans))
	for i, s := range spans {
		secs[i] = s.seconds
	}
	slices.Sort(secs)
	median := rankQuantile(secs, 0.5)
	if median <= 0 {
		return nil
	}
	worst := make(map[string]phaseSpan)
	for _, s := range spans {
		cur, seen := worst[s.actor]
		if s.seconds > stragglerFactor*median && s.seconds >= minStragglerSeconds &&
			(!seen || s.seconds > cur.seconds || s.seconds == cur.seconds && s.end.After(cur.end)) {
			worst[s.actor] = s
		}
	}
	out := make([]Straggler, 0, len(worst))
	for actor, s := range worst {
		out = append(out, Straggler{
			Actor: actor, Phase: phase, Iter: iter,
			LastSeconds: s.seconds, MedianSeconds: median,
			Ratio: s.seconds / median, At: s.end,
		})
	}
	return out
}

// Package netsim is a deterministic discrete-event network simulator, the
// stand-in for the mininet emulation used in the paper's testbed (§V).
//
// It models nodes with independent uplink and downlink capacities and
// point-to-point transfers that share bottleneck bandwidth max-min fairly,
// which is how concurrent bulk TCP flows behave under mininet. Protocol
// logic runs as cooperative processes over a virtual clock: exactly one
// process executes at a time, and virtual time advances only while every
// process is blocked, so simulations are fully reproducible.
package netsim

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"ipls/internal/obs"
)

// Env is a simulation environment: a virtual clock, a set of nodes, the
// active transfers and the scheduler for cooperative processes.
type Env struct {
	now     time.Duration
	latency time.Duration

	ready   []*proc
	timers  timerHeap
	flows   []*flow
	seq     int
	blocked int // processes waiting on signals (not timers/flows)

	yield   chan struct{}
	current *proc

	nodes map[string]*Node

	reg       *obs.Registry
	transfers *obs.Counter
	clock     *obs.Gauge
}

// NewEnv creates an empty simulation environment.
func NewEnv() *Env {
	return &Env{
		yield: make(chan struct{}),
		nodes: make(map[string]*Node),
	}
}

// SetLatency sets a fixed per-transfer latency added before the
// bandwidth-limited phase of every Transfer.
func (e *Env) SetLatency(d time.Duration) { e.latency = d }

// SetMetrics mirrors transfer accounting into a registry under the same
// metric names real-TCP runs use (bytes_uploaded_total{node=...},
// bytes_downloaded_total{node=...}), so simulated and emulated experiments
// produce comparable snapshots. It also exposes transfers_total and a
// sim_virtual_time_seconds gauge. Call it before Run; nil detaches.
func (e *Env) SetMetrics(reg *obs.Registry) {
	e.reg = reg
	e.transfers = reg.Counter("transfers_total")
	e.clock = reg.Gauge("sim_virtual_time_seconds")
	for _, n := range e.nodes {
		n.resolveMetrics(reg)
	}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Clock returns a wall-clock view of the virtual time, anchored at base:
// each call reports base plus the current virtual offset. Span emitters
// that stamp absolute timestamps (core.Simulate's) use it so their output
// lands on the simulation's timeline.
func (e *Env) Clock(base time.Time) func() time.Time {
	return func() time.Time { return base.Add(e.now) }
}

// Node is a simulated host with independent uplink and downlink capacities
// in bits per second.
type Node struct {
	Name    string
	UpBps   float64
	DownBps float64

	// BytesSent and BytesReceived accumulate completed transfer sizes.
	BytesSent     int64
	BytesReceived int64

	env      *Env
	sentCtr  *obs.Counter
	recvCtr  *obs.Counter
	cpuCtr   *obs.Counter
	allocCtr *obs.Counter
}

func (n *Node) resolveMetrics(reg *obs.Registry) {
	n.sentCtr = reg.Counter("bytes_uploaded_total", "node", n.Name)
	n.recvCtr = reg.Counter("bytes_downloaded_total", "node", n.Name)
	n.cpuCtr = reg.Counter("sim_cpu_ns_total", "node", n.Name)
	n.allocCtr = reg.Counter("sim_alloc_bytes_total", "node", n.Name)
}

// chargeModel charges the node the modeled resource cost of handling a
// payload (see ModelCost).
func (n *Node) chargeModel(bytes int64) {
	cpu, alloc := ModelCost(bytes)
	n.cpuCtr.Add(cpu)
	n.allocCtr.Add(alloc)
}

// ModelCost is the deterministic resource model of handling a payload:
// the CPU nanoseconds and heap bytes charged per transfer endpoint
// (serialize on send, deserialize on receive). The model is deliberately
// simple — half a nanosecond of CPU per byte (a memcpy-dominated path at
// ~2 GB/s) and one allocated byte per payload byte — because its job is
// not realism but determinism: simulated spans and the scoreboard's
// sim_cpu_ns_total/sim_alloc_bytes_total counters must fold to
// byte-identical budget baselines run after run, which process-wide
// runtime meters cannot give. Real deployments meter actual usage via
// obs.RuntimeMeter instead.
func ModelCost(bytes int64) (cpuNanos, allocBytes int64) {
	if bytes <= 0 {
		return 0, 0
	}
	return bytes / 2, bytes
}

// AddNode registers a node with the given link capacities (bits/second).
func (e *Env) AddNode(name string, upBps, downBps float64) *Node {
	if upBps <= 0 || downBps <= 0 {
		panic(fmt.Sprintf("netsim: node %q must have positive bandwidth", name))
	}
	if _, dup := e.nodes[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	n := &Node{Name: name, UpBps: upBps, DownBps: downBps, env: e}
	n.resolveMetrics(e.reg)
	e.nodes[name] = n
	return n
}

// Mbps converts megabits per second to bits per second.
func Mbps(v float64) float64 { return v * 1e6 }

type procState int

const (
	procReady procState = iota + 1
	procRunning
	procBlocked
	procDone
)

type proc struct {
	name   string
	resume chan struct{}
	state  procState
}

type flow struct {
	seq       int
	from, to  *Node
	remaining float64 // bits
	rate      float64 // bits per second, set by recomputeRates
	bytes     int64
	waiter    *proc
}

type timer struct {
	at  time.Duration
	seq int
	p   *proc
	// cancelled, when non-nil and true at fire time, suppresses the
	// wake-up (used by deadline-bounded waits that were satisfied early).
	cancelled *bool
}

type timerHeap []timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(timer)) }
func (h *timerHeap) Pop() any     { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// Go spawns a cooperative process. It must be called before Run or from
// within another process.
func (e *Env) Go(name string, fn func()) {
	p := &proc{name: name, resume: make(chan struct{}), state: procReady}
	e.ready = append(e.ready, p)
	go func() {
		<-p.resume
		fn()
		p.state = procDone
		e.yield <- struct{}{}
	}()
}

// Run drives the simulation until every process has finished. It returns an
// error if processes remain blocked with no pending event to wake them
// (a deadlock in the simulated protocol).
func (e *Env) Run() error {
	for {
		if len(e.ready) > 0 {
			p := e.ready[0]
			e.ready = e.ready[1:]
			e.runProc(p)
			continue
		}
		tTimer, hasTimer := e.nextTimer()
		tFlow, hasFlow := e.nextFlowCompletion()
		switch {
		case hasTimer && (!hasFlow || tTimer <= tFlow):
			e.advanceTo(tTimer)
			e.fireTimers()
		case hasFlow:
			e.advanceTo(tFlow)
			e.completeFlows()
		default:
			if e.blocked > 0 {
				return fmt.Errorf("netsim: deadlock: %d process(es) blocked with no pending events", e.blocked)
			}
			return nil
		}
	}
}

func (e *Env) runProc(p *proc) {
	p.state = procRunning
	e.current = p
	p.resume <- struct{}{}
	<-e.yield
	e.current = nil
}

// block suspends the current process until it is made ready again. The
// caller must have registered a wake-up (timer, flow or signal) first.
func (e *Env) block() {
	p := e.current
	if p == nil {
		panic("netsim: blocking call outside a simulation process")
	}
	p.state = procBlocked
	e.yield <- struct{}{}
	<-p.resume
	p.state = procRunning
}

func (e *Env) makeReady(p *proc) {
	p.state = procReady
	e.ready = append(e.ready, p)
}

// Sleep suspends the current process for d of virtual time.
func (e *Env) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.seq++
	heap.Push(&e.timers, timer{at: e.now + d, seq: e.seq, p: e.current})
	e.block()
}

// Transfer moves bytes from one node to another, blocking the calling
// process for the bandwidth-limited transfer duration. Concurrent transfers
// through the same uplink or downlink share it max-min fairly. Transfers
// between a node and itself complete instantly.
func (e *Env) Transfer(from, to *Node, bytes int64) {
	if from.env != e || to.env != e {
		panic("netsim: transfer between foreign nodes")
	}
	if bytes < 0 {
		panic("netsim: negative transfer size")
	}
	from.BytesSent += bytes
	to.BytesReceived += bytes
	from.sentCtr.Add(bytes)
	to.recvCtr.Add(bytes)
	from.chargeModel(bytes)
	to.chargeModel(bytes)
	e.transfers.Inc()
	if from == to || bytes == 0 {
		if e.latency > 0 {
			e.Sleep(e.latency)
		}
		return
	}
	if e.latency > 0 {
		e.Sleep(e.latency)
	}
	e.seq++
	f := &flow{
		seq:       e.seq,
		from:      from,
		to:        to,
		remaining: float64(bytes) * 8,
		bytes:     bytes,
		waiter:    e.current,
	}
	e.flows = append(e.flows, f)
	e.recomputeRates()
	e.block()
}

func (e *Env) nextTimer() (time.Duration, bool) {
	if len(e.timers) == 0 {
		return 0, false
	}
	return e.timers[0].at, true
}

func (e *Env) nextFlowCompletion() (time.Duration, bool) {
	best := time.Duration(math.MaxInt64)
	found := false
	for _, f := range e.flows {
		if f.rate <= 0 {
			continue
		}
		// Round up to the next nanosecond so the flow's remainder is
		// guaranteed to reach zero when the clock advances there.
		t := e.now + time.Duration(math.Ceil(f.remaining/f.rate*float64(time.Second)))
		if t <= e.now {
			t = e.now
		}
		if t < best {
			best = t
			found = true
		}
	}
	return best, found
}

// advanceTo moves the clock forward, draining flow remainders at current
// rates.
func (e *Env) advanceTo(t time.Duration) {
	if t < e.now {
		t = e.now
	}
	dt := (t - e.now).Seconds()
	for _, f := range e.flows {
		f.remaining -= f.rate * dt
	}
	e.now = t
	e.clock.Set(t.Seconds())
}

func (e *Env) fireTimers() {
	for len(e.timers) > 0 && e.timers[0].at <= e.now {
		tm := heap.Pop(&e.timers).(timer)
		if tm.cancelled != nil && *tm.cancelled {
			continue
		}
		e.makeReady(tm.p)
	}
}

// completeFlows finishes every flow whose remaining volume has drained
// (within a sub-bit epsilon to absorb float error) and recomputes rates.
func (e *Env) completeFlows() {
	const eps = 1e-6
	var remaining []*flow
	finished := false
	for _, f := range e.flows {
		if f.remaining <= eps {
			e.makeReady(f.waiter)
			finished = true
		} else {
			remaining = append(remaining, f)
		}
	}
	if !finished && len(remaining) > 0 {
		// Defensive: finish the flow closest to completion so the
		// simulation always makes progress.
		minIdx := 0
		for i, f := range remaining {
			if f.remaining < remaining[minIdx].remaining {
				minIdx = i
			}
		}
		e.makeReady(remaining[minIdx].waiter)
		remaining = append(remaining[:minIdx], remaining[minIdx+1:]...)
		finished = true
	}
	e.flows = remaining
	if finished {
		e.recomputeRates()
	}
}

// recomputeRates assigns max-min fair rates to all active flows via
// progressive filling over the uplink/downlink capacities.
func (e *Env) recomputeRates() {
	type link struct {
		cap   float64
		count int
	}
	// Deterministic link table: indexed by node in first-appearance order.
	var links []*[2]link // [0]=uplink, [1]=downlink
	index := make(map[*Node]int)
	getLinks := func(n *Node) *[2]link {
		i, ok := index[n]
		if !ok {
			i = len(links)
			index[n] = i
			links = append(links, &[2]link{{cap: n.UpBps}, {cap: n.DownBps}})
		}
		return links[i]
	}
	frozen := make([]bool, len(e.flows))
	left := len(e.flows)
	for _, f := range e.flows {
		getLinks(f.from)[0].count++
		getLinks(f.to)[1].count++
	}
	for left > 0 {
		// Find the bottleneck link: the one with the smallest fair share.
		minShare := math.MaxFloat64
		for _, l := range links {
			for i := 0; i < 2; i++ {
				if l[i].count > 0 {
					share := l[i].cap / float64(l[i].count)
					if share < minShare {
						minShare = share
					}
				}
			}
		}
		if minShare == math.MaxFloat64 {
			break
		}
		// Freeze every flow crossing a bottlenecked link at that share.
		frozeAny := false
		for i, f := range e.flows {
			if frozen[i] {
				continue
			}
			up := getLinks(f.from)
			down := getLinks(f.to)
			upShare := up[0].cap / float64(up[0].count)
			downShare := down[1].cap / float64(down[1].count)
			if upShare <= minShare+1e-9 || downShare <= minShare+1e-9 {
				f.rate = minShare
				frozen[i] = true
				left--
				up[0].cap -= minShare
				up[0].count--
				down[1].cap -= minShare
				down[1].count--
				frozeAny = true
			}
		}
		if !frozeAny { // numerical safety; should not happen
			for i, f := range e.flows {
				if !frozen[i] {
					f.rate = minShare
					frozen[i] = true
					left--
				}
			}
		}
	}
}

// Signal is a one-shot broadcast event for inter-process coordination.
// Processes that Wait before Fire are suspended; Fire wakes all of them and
// subsequent Waits return immediately.
type Signal struct {
	env     *Env
	fired   bool
	waiters []*proc
}

// NewSignal creates an unfired signal.
func (e *Env) NewSignal() *Signal { return &Signal{env: e} }

// Wait blocks the current process until the signal fires.
func (s *Signal) Wait() {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, s.env.current)
	s.env.blocked++
	s.env.block()
}

// Fire wakes all waiting processes. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, p := range s.waiters {
		s.env.blocked--
		s.env.makeReady(p)
	}
	s.waiters = nil
}

// Counter is a countdown latch: processes wait until Add has been called a
// target number of times.
type Counter struct {
	env             *Env
	count           int
	target          int
	waiters         []*proc
	deadlineWaiters []deadlineWaiter
	// quorumWaiters wake on every Add (not only at target) so partial
	// thresholds can be rechecked — see WaitQuorum.
	quorumWaiters []*proc
}

type deadlineWaiter struct {
	p         *proc
	satisfied *bool
}

// NewCounter creates a latch that releases waiters once Add has been called
// target times.
func (e *Env) NewCounter(target int) *Counter {
	return &Counter{env: e, target: target}
}

// Add increments the counter, waking waiters when the target is reached.
func (c *Counter) Add() {
	c.count++
	for _, p := range c.quorumWaiters {
		c.env.blocked--
		c.env.makeReady(p)
	}
	c.quorumWaiters = nil
	if c.count >= c.target {
		for _, p := range c.waiters {
			c.env.blocked--
			c.env.makeReady(p)
		}
		c.waiters = nil
		for _, w := range c.deadlineWaiters {
			*w.satisfied = true
			c.env.makeReady(w.p)
		}
		c.deadlineWaiters = nil
	}
}

// Count returns the number of Add calls so far.
func (c *Counter) Count() int { return c.count }

// Target returns the count that releases plain waiters.
func (c *Counter) Target() int { return c.target }

// WaitQuorum blocks until the full target is reached, or until the
// virtual clock has passed at AND at least need arrivals have landed —
// the m-of-n quorum primitive behind §III-D quorum rounds. It reports
// whether the full target was reached.
func (c *Counter) WaitQuorum(need int, at time.Duration) bool {
	if need >= c.target {
		c.Wait()
		return true
	}
	for {
		if c.count >= c.target {
			return true
		}
		if c.env.Now() < at {
			// Before the deadline: sleep until it; an early full
			// target wakes us sooner via the deadline-waiter path.
			if c.WaitDeadline(at) {
				return true
			}
			continue
		}
		if c.count >= need {
			return false
		}
		// Past the deadline but below quorum: wait for the next arrival
		// before rechecking.
		c.quorumWaiters = append(c.quorumWaiters, c.env.current)
		c.env.blocked++
		c.env.block()
	}
}

// Wait blocks the current process until the target is reached.
func (c *Counter) Wait() {
	if c.count >= c.target {
		return
	}
	c.waiters = append(c.waiters, c.env.current)
	c.env.blocked++
	c.env.block()
}

// WaitDeadline blocks until the target is reached or the virtual clock
// reaches the absolute deadline, whichever comes first. It reports whether
// the target was reached — the primitive behind t_train-style cutoffs.
func (c *Counter) WaitDeadline(at time.Duration) bool {
	if c.count >= c.target {
		return true
	}
	if c.env.Now() >= at {
		return false
	}
	p := c.env.current
	satisfied := false
	// Deadline timer; suppressed if the counter fires first.
	c.env.seq++
	heap.Push(&c.env.timers, timer{at: at, seq: c.env.seq, p: p, cancelled: &satisfied})
	c.deadlineWaiters = append(c.deadlineWaiters, deadlineWaiter{p: p, satisfied: &satisfied})
	c.env.block()
	if satisfied {
		return true
	}
	// Deadline fired: withdraw from the waiter list so a later Add does
	// not wake this process again.
	for i, w := range c.deadlineWaiters {
		if w.p == p {
			c.deadlineWaiters = append(c.deadlineWaiters[:i], c.deadlineWaiters[i+1:]...)
			break
		}
	}
	return c.count >= c.target
}

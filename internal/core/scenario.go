package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ipls/internal/dag"
	"ipls/internal/obs"
	"ipls/internal/scenario"
	"ipls/internal/storage"
)

// ScenarioRunner drives a Task across rounds under a scenario.Plan. It
// is the only round driver above Task: each round it walks the plan's
// events and calls the subsystems' injectors directly.
//
//   - depart/crash/rejoin naming a storage node hit the network (Depart,
//     Fail, Recover or Rejoin). Naming an aggregator, a crash makes it a
//     dropout, and when every aggregator of a partition is down a live
//     peer from another partition stands by and takes the partition over
//     (§III-D). Naming a trainer, a crash makes it sit its rounds out;
//     on rejoin it bootstraps from the latest checkpoint DAG instead of
//     iteration 0;
//   - slow/flaky iteration windows set the storage fault at the window's
//     first iteration and clear it one past its last (timed windows
//     target the virtual-clock simulator and are ignored here);
//   - a partition window isolates its non-mainline groups: storage
//     members are cut off via Network.Partition, trainers sit the window
//     out, aggregators behave as dropouts. When the window closes, the
//     network Heals (provider re-announce) and a RepairScan restores
//     replication both ways;
//   - corrupt events inject Byzantine uploads, late events inject
//     stragglers whose deltas fold into the next round;
//   - a quorum setting (SetQuorum) lets every round close at m-of-n;
//   - after every round the advanced global model is checkpointed to a
//     live storage node and a RepairScan restores the replication factor
//     eroded by departures.
type ScenarioRunner struct {
	task   *Task
	net    *storage.Network
	events []scenario.Event

	crashedAggs     map[string]bool
	crashedTrainers map[string]bool
	checkpoint      dag.Ref
	hasCheckpoint   bool

	// open is the partition event currently in force (nil when the
	// network is whole); openStorage remembers whether it isolated
	// storage nodes, i.e. whether closing it must Heal.
	open        *scenario.Event
	openStorage bool
	// degraded holds the slow/flaky windows currently in force, so Finish
	// can clear the ones that outlive the last round.
	degraded map[degradeKey]bool

	quorum     float64
	quorumWait time.Duration

	churnEvents *obs.Counter
	bootstraps  *obs.Counter
}

// degradeKey names one storage degradation: a slow or flaky fault on a
// node.
type degradeKey struct {
	kind scenario.Kind
	node string
}

// NewScenarioRunner wires a runner over a task, its storage network and
// a parsed plan. net may be nil (direct backends); storage-node events
// then fail as unknown participants, and partitions can only name roles.
func NewScenarioRunner(task *Task, net *storage.Network, plan *scenario.Plan) *ScenarioRunner {
	return &ScenarioRunner{
		task:            task,
		net:             net,
		events:          plan.Events(),
		crashedAggs:     make(map[string]bool),
		crashedTrainers: make(map[string]bool),
		degraded:        make(map[degradeKey]bool),
	}
}

// SetQuorum lets every aggregator close its gradient wait at
// ceil(q·n)-of-n once wait has passed (0 disables; invalid in
// verifiable mode — RunRound will report the iteration's error).
func (r *ScenarioRunner) SetQuorum(q float64, wait time.Duration) {
	r.quorum, r.quorumWait = q, wait
}

// SetMetrics points the runner's instrumentation at a registry (nil
// detaches).
func (r *ScenarioRunner) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		r.churnEvents = nil
		r.bootstraps = nil
		return
	}
	r.churnEvents = reg.Counter("churn_events_total")
	r.bootstraps = reg.Counter("trainer_bootstraps_total")
}

// Checkpoint returns the latest checkpoint reference and whether one has
// been taken.
func (r *ScenarioRunner) Checkpoint() (dag.Ref, bool) { return r.checkpoint, r.hasCheckpoint }

// RunRound applies every injection scheduled for the task's current
// round — closing an expired partition window first, then storage
// membership and slow/flaky edges in plan order, then opening a
// partition window that starts now, then role events — runs the round
// with the induced absences, dropouts and standbys, checkpoints the
// global model onto a live storage node and repairs replication. The
// returned strings describe the injections applied, in order.
func (r *ScenarioRunner) RunRound(ctx context.Context) (RoundMetrics, *IterationResult, []string, error) {
	round := r.task.Round()
	cfg := r.task.session.cfg
	var applied []string
	fail := func(err error) (RoundMetrics, *IterationResult, []string, error) {
		return RoundMetrics{}, nil, applied, err
	}

	// Close a partition window that ended before this round: the
	// isolated side rejoins, re-announces its blocks, and a RepairScan
	// reconciles replication in both directions.
	if r.open != nil && round > r.open.Window.ToIter {
		desc, err := r.heal(ctx)
		if err != nil {
			return fail(err)
		}
		applied = append(applied, desc)
	}

	// One walk over the plan: events naming storage nodes hit the
	// network now; role events and a partition that opens this round
	// wait until the storage side is settled; corrupt and late trainers
	// go straight into the round's options.
	opts := RoundOptions{
		Behaviors:  make(map[string]Behavior),
		Absent:     make(map[string]bool),
		Corrupt:    make(map[string]bool),
		Late:       make(map[string]bool),
		Quorum:     r.quorum,
		QuorumWait: r.quorumWait,
	}
	var roles []scenario.Event
	var opening *scenario.Event
	churned := 0
	for i := range r.events {
		ev := &r.events[i]
		if ev.Window.Timed {
			continue
		}
		var desc string
		var err error
		switch ev.Kind {
		case scenario.Depart, scenario.Crash, scenario.Rejoin:
			if ev.Window.FromIter != round {
				continue
			}
			if r.net == nil || !isStorageNode(cfg, ev.Node) {
				roles = append(roles, *ev)
				continue
			}
			desc, err = r.applyStorageEvent(*ev)
			churned++
		case scenario.Slow, scenario.Flaky:
			if r.net == nil || (round != ev.Window.FromIter && round != ev.Window.ToIter+1) {
				continue
			}
			desc, err = r.degrade(*ev, round == ev.Window.FromIter)
		case scenario.Partition:
			if r.open == nil && opening == nil && ev.Window.ContainsIter(round) {
				opening = ev
			}
			continue
		case scenario.Corrupt, scenario.Late:
			if ev.Window.ContainsIter(round) {
				trainers := opts.Corrupt
				if ev.Kind == scenario.Late {
					trainers = opts.Late
				}
				trainers[ev.Node] = true
			}
			continue
		}
		if err != nil {
			return fail(fmt.Errorf("core: scenario %s at iter %d: %w", ev, round, err))
		}
		applied = append(applied, desc)
	}
	if opening != nil {
		desc, err := r.openPartition(opening)
		if err != nil {
			return fail(err)
		}
		applied = append(applied, desc)
	}
	for _, ev := range roles {
		desc, err := r.applyRoleEvent(ctx, round, ev)
		if err != nil {
			return fail(err)
		}
		applied = append(applied, desc)
	}
	r.churnEvents.Add(int64(churned + len(roles)))

	for agg := range r.crashedAggs {
		opts.Behaviors[agg] = BehaviorDropout
	}
	for tr := range r.crashedTrainers {
		opts.Absent[tr] = true
	}
	if r.open != nil {
		for _, id := range r.open.Isolated() {
			if isTrainer(cfg, id) {
				opts.Absent[id] = true
			} else if _, ok := aggregatorPartition(cfg, id); ok {
				opts.Behaviors[id] = BehaviorDropout
			}
		}
	}
	var err error
	if opts.Standbys, err = r.standbys(); err != nil {
		return fail(err)
	}

	metrics, res, err := r.task.RunRound(ctx, opts)
	if err != nil {
		return metrics, res, applied, err
	}
	if r.net != nil {
		if node := r.liveStorageNode(); node != "" {
			ref, err := r.task.Checkpoint(ctx, r.net, node)
			if err != nil {
				return metrics, res, applied, fmt.Errorf("core: scenario checkpoint round %d: %w", round, err)
			}
			r.checkpoint = ref
			r.hasCheckpoint = true
		}
		if _, err := r.net.RepairScan(ctx); err != nil {
			return metrics, res, applied, fmt.Errorf("core: scenario repair round %d: %w", round, err)
		}
	}
	return metrics, res, applied, nil
}

// Finish leaves the network whole after the last round: it heals a
// partition window still open and clears every slow/flaky window still
// in force, so a scenario that ends mid-window does not degrade whoever
// uses the Network next. The returned strings describe what it undid.
func (r *ScenarioRunner) Finish(ctx context.Context) ([]string, error) {
	var applied []string
	if r.open != nil {
		desc, err := r.heal(ctx)
		if err != nil {
			return nil, err
		}
		applied = append(applied, desc)
	}
	for _, ev := range r.events {
		if !r.degraded[degradeKey{ev.Kind, ev.Node}] {
			continue
		}
		desc, err := r.degrade(ev, false)
		if err != nil {
			return applied, fmt.Errorf("core: scenario finish: %w", err)
		}
		applied = append(applied, desc)
	}
	return applied, nil
}

// applyStorageEvent applies a membership event naming a storage node:
// depart→Depart, crash→Fail, rejoin→Recover, or Rejoin (empty) when the
// node had departed.
func (r *ScenarioRunner) applyStorageEvent(ev scenario.Event) (string, error) {
	switch ev.Kind {
	case scenario.Depart:
		return fmt.Sprintf("depart %s (blocks lost)", ev.Node), r.net.Depart(ev.Node)
	case scenario.Crash:
		return fmt.Sprintf("crash %s", ev.Node), r.net.Fail(ev.Node)
	default:
		err := r.net.Recover(ev.Node)
		if errors.Is(err, storage.ErrNodeDeparted) {
			return fmt.Sprintf("rejoin %s (empty datastore)", ev.Node), r.net.Rejoin(ev.Node)
		}
		return fmt.Sprintf("rejoin %s (datastore intact)", ev.Node), err
	}
}

// degrade sets (on) or clears a slow/flaky window's storage fault.
func (r *ScenarioRunner) degrade(ev scenario.Event, on bool) (string, error) {
	key := degradeKey{ev.Kind, ev.Node}
	if on {
		r.degraded[key] = true
	} else {
		delete(r.degraded, key)
		ev.Delay, ev.Prob = 0, 0
	}
	if ev.Kind == scenario.Slow {
		return fmt.Sprintf("slow %s by %s", ev.Node, ev.Delay), r.net.Slow(ev.Node, ev.Delay)
	}
	return fmt.Sprintf("flaky %s p=%v", ev.Node, ev.Prob), r.net.Flaky(ev.Node, ev.Prob)
}

// openPartition puts a partition window in force: storage members are
// isolated on the network; role members degrade via RunRound's
// RoundOptions.
func (r *ScenarioRunner) openPartition(ev *scenario.Event) (string, error) {
	cfg := r.task.session.cfg
	var stores []string
	roles := 0
	for _, id := range ev.Isolated() {
		if r.net != nil && isStorageNode(cfg, id) {
			stores = append(stores, id)
		} else {
			roles++
		}
	}
	if len(stores) > 0 {
		if err := r.net.Partition(stores); err != nil {
			return "", fmt.Errorf("core: scenario partition at iter %d: %w", ev.Window.FromIter, err)
		}
	}
	r.open = ev
	r.openStorage = len(stores) > 0
	return fmt.Sprintf("partition open (iter %d..%d): %d storage node(s), %d role(s) isolated",
		ev.Window.FromIter, ev.Window.ToIter, len(stores), roles), nil
}

// heal closes the open partition window: Network.Heal re-announces the
// isolated side's blocks and a RepairScan re-replicates what either
// side lost during the split.
func (r *ScenarioRunner) heal(ctx context.Context) (string, error) {
	w := r.open.Window
	r.open = nil
	if !r.openStorage {
		return fmt.Sprintf("partition closed (iter %d..%d): roles back in rotation", w.FromIter, w.ToIter), nil
	}
	r.openStorage = false
	if err := r.net.Heal(); err != nil {
		return "", fmt.Errorf("core: scenario heal after iter %d: %w", w.ToIter, err)
	}
	report, err := r.net.RepairScan(ctx)
	if err != nil {
		return "", fmt.Errorf("core: scenario repair after iter %d: %w", w.ToIter, err)
	}
	return fmt.Sprintf("partition healed (iter %d..%d): providers re-announced, %d block(s) re-replicated",
		w.FromIter, w.ToIter, report.Repaired), nil
}

// applyRoleEvent handles a membership event naming a protocol role
// rather than a storage node.
func (r *ScenarioRunner) applyRoleEvent(ctx context.Context, round int, ev scenario.Event) (string, error) {
	cfg := r.task.session.cfg
	switch ev.Kind {
	case scenario.Crash:
		if p, ok := aggregatorPartition(cfg, ev.Node); ok {
			r.crashedAggs[ev.Node] = true
			return fmt.Sprintf("crash %s (partition %d aggregator)", ev.Node, p), nil
		}
		if isTrainer(cfg, ev.Node) {
			r.crashedTrainers[ev.Node] = true
			return fmt.Sprintf("crash %s (trainer)", ev.Node), nil
		}
	case scenario.Rejoin:
		if r.crashedAggs[ev.Node] {
			delete(r.crashedAggs, ev.Node)
			return fmt.Sprintf("rejoin %s (aggregator back in rotation)", ev.Node), nil
		}
		if r.crashedTrainers[ev.Node] {
			delete(r.crashedTrainers, ev.Node)
			return r.bootstrapTrainer(ctx, round, ev.Node)
		}
		if isTrainer(cfg, ev.Node) {
			return "", fmt.Errorf("core: scenario rejoin %q at iter %d: trainer never crashed", ev.Node, round)
		}
	case scenario.Depart:
		return "", fmt.Errorf("core: scenario depart %q: depart targets a storage node", ev.Node)
	}
	return "", fmt.Errorf("core: scenario %s %q: unknown participant", ev.Kind, ev.Node)
}

// bootstrapTrainer brings a rejoining trainer up to date from the latest
// checkpoint DAG — the §VI joining-party path — instead of replaying
// from iteration 0. The loaded parameters are CID-verified per chunk by
// the DAG layer and must match the task's model dimension.
func (r *ScenarioRunner) bootstrapTrainer(ctx context.Context, round int, trainer string) (_ string, err error) {
	if r.net == nil || !r.hasCheckpoint {
		return fmt.Sprintf("rejoin %s (trainer, no checkpoint yet)", trainer), nil
	}
	node := r.liveStorageNode()
	if node == "" {
		return "", fmt.Errorf("core: scenario rejoin %s: no live storage node to bootstrap from", trainer)
	}
	sc := r.task.session.startSpan("bootstrap", trainer, round, obs.SpanContext{})
	sc.attr("node", node)
	sc.attr("checkpoint", r.checkpoint.CID.Short())
	defer func() { sc.endErr(err) }()
	params, err := LoadCheckpoint(ctx, r.net, node, r.checkpoint)
	if err != nil {
		return "", fmt.Errorf("core: scenario rejoin %s: %w", trainer, err)
	}
	if len(params) != r.task.session.cfg.Spec.Dim {
		return "", fmt.Errorf("core: scenario rejoin %s: checkpoint has %d params, model wants %d",
			trainer, len(params), r.task.session.cfg.Spec.Dim)
	}
	r.bootstraps.Inc()
	return fmt.Sprintf("rejoin %s (trainer, bootstrapped %d params from checkpoint %s)",
		trainer, len(params), r.checkpoint.CID.Short()), nil
}

// standbys picks, for every partition whose entire aggregator set is
// crashed, a live aggregator from another partition to stand by for it.
// Partitions with at least one live aggregator need none: the surviving
// peer's phase-4 takeover already covers crashed peers.
func (r *ScenarioRunner) standbys() (map[int]string, error) {
	cfg := r.task.session.cfg
	var out map[int]string
	for p := 0; p < cfg.Spec.Partitions; p++ {
		allCrashed := true
		for _, agg := range cfg.Aggregators[p] {
			if !r.crashedAggs[agg] {
				allCrashed = false
				break
			}
		}
		if !allCrashed {
			continue
		}
		standby := ""
		for _, ref := range cfg.AllAggregators() {
			if ref.Partition != p && !r.crashedAggs[ref.ID] {
				standby = ref.ID
				break
			}
		}
		if standby == "" {
			return nil, fmt.Errorf("core: scenario: no live aggregator left to stand by for partition %d", p)
		}
		if out == nil {
			out = make(map[int]string)
		}
		out[p] = standby
	}
	return out, nil
}

// liveStorageNode returns a live storage node for checkpoints, or "".
func (r *ScenarioRunner) liveStorageNode() string {
	if live := r.net.LiveNodes(); len(live) > 0 {
		return live[0]
	}
	return ""
}

// aggregatorPartition resolves an aggregator ID to its partition.
func aggregatorPartition(cfg *Config, id string) (int, bool) {
	for _, ref := range cfg.AllAggregators() {
		if ref.ID == id {
			return ref.Partition, true
		}
	}
	return 0, false
}

// isTrainer reports whether id is one of the task's trainers.
func isTrainer(cfg *Config, id string) bool {
	for _, tr := range cfg.Trainers {
		if tr == id {
			return true
		}
	}
	return false
}

// isStorageNode reports whether id is one of the task's storage nodes.
func isStorageNode(cfg *Config, id string) bool {
	for _, n := range cfg.StorageNodes {
		if n == id {
			return true
		}
	}
	return false
}

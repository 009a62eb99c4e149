package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"ipls/internal/directory"
	"ipls/internal/ml"
	"ipls/internal/obs"
)

// Task drives a complete federated-learning job over a Session: each round,
// every trainer computes a local model delta with SGD, the deltas flow
// through the decentralized protocol, and the averaged delta advances the
// shared global model.
type Task struct {
	session *Session
	model   ml.Model
	locals  map[string]*ml.Dataset
	sgd     ml.SGDConfig
	global  []float64
	round   int

	// late stashes deltas from trainers that trained but missed their
	// round's upload window (RoundOptions.Late); they are folded into
	// the next applied round with an age-discounted weight.
	late []lateDelta
}

// lateDelta is one straggler's stashed contribution.
type lateDelta struct {
	trainer string
	round   int
	delta   []float64
}

// lateDecay is the per-round staleness discount for folded late deltas:
// a delta that is a rounds old is applied with weight lateDecay^a / n
// (n trainers), approximating the average contribution it would have
// made in its own round, discounted for drift since.
const lateDecay = 0.5

// RoundMetrics reports one completed FL round.
type RoundMetrics struct {
	Round    int
	Loss     float64 // mean local training loss across trainers
	Detected bool    // any malicious aggregation caught this round
	Applied  bool    // the global model advanced (false when blocked)
	// LateFolded counts stashed straggler deltas from earlier rounds
	// folded into this round's global model (age-discounted).
	LateFolded int
}

// NewTask validates shapes and creates a task. The model instance is used
// as shared scratch space for local training (rounds run trainers
// sequentially for determinism); initial is the starting global parameter
// vector.
func NewTask(s *Session, m ml.Model, locals map[string]*ml.Dataset, sgd ml.SGDConfig, initial []float64) (*Task, error) {
	if m.Dim() != s.cfg.Spec.Dim {
		return nil, fmt.Errorf("core: model dim %d != task dim %d", m.Dim(), s.cfg.Spec.Dim)
	}
	if len(initial) != m.Dim() {
		return nil, fmt.Errorf("core: initial params have length %d, want %d", len(initial), m.Dim())
	}
	for _, tr := range s.cfg.Trainers {
		d, ok := locals[tr]
		if !ok || d.Len() == 0 {
			return nil, fmt.Errorf("core: trainer %s has no local data", tr)
		}
	}
	return &Task{
		session: s,
		model:   m,
		locals:  locals,
		sgd:     sgd,
		global:  append([]float64(nil), initial...),
	}, nil
}

// Resume fast-forwards a freshly constructed task past rounds that already
// completed in a previous process life — the trainer-side catch-up of a
// restart on durable state. For each consecutive round whose final updates
// are all published (a non-blocking directory probe, so an in-flight round
// never stalls the caller), the published global updates are collected and
// applied; the task's round counter continues after the replayed rounds.
// Returns the number of rounds replayed.
func (t *Task) Resume(ctx context.Context) (int, error) {
	replayed := 0
	for {
		complete := true
		for p := 0; p < t.session.cfg.Spec.Partitions; p++ {
			if _, err := t.session.dir.Update(ctx, t.round, p); err != nil {
				if errors.Is(err, directory.ErrNotFound) {
					complete = false
					break
				}
				return replayed, fmt.Errorf("core: resume probe round %d: %w", t.round, err)
			}
		}
		if !complete {
			return replayed, nil
		}
		avg, err := t.session.TrainerCollect(ctx, t.round)
		if err != nil {
			return replayed, fmt.Errorf("core: resume round %d: %w", t.round, err)
		}
		for i := range t.global {
			t.global[i] += avg[i]
		}
		t.round++
		replayed++
	}
}

// Global returns a copy of the current global parameter vector.
func (t *Task) Global() []float64 {
	return append([]float64(nil), t.global...)
}

// Round returns the number of completed rounds.
func (t *Task) Round() int { return t.round }

// localDeltas computes every present trainer's deterministic local delta
// for the given round from the current global model. Seeds stay keyed
// by each trainer's configured index, so the trainers that do run produce
// the same deltas they would in a full round.
func (t *Task) localDeltas(round int, absent map[string]bool) (map[string][]float64, float64, error) {
	deltas := make(map[string][]float64, len(t.session.cfg.Trainers))
	var totalLoss float64
	trained := 0
	for idx, tr := range t.session.cfg.Trainers {
		if absent[tr] {
			continue
		}
		cfg := t.sgd
		cfg.Seed = ml.ParticipantSeed(int64(round), idx)
		delta, loss, err := ml.LocalDelta(t.model, t.locals[tr], t.global, cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("core: trainer %s local training: %w", tr, err)
		}
		deltas[tr] = delta
		totalLoss += loss
		trained++
	}
	if trained == 0 {
		return nil, 0, fmt.Errorf("core: every trainer is absent in round %d", round)
	}
	return deltas, totalLoss / float64(trained), nil
}

// RoundOptions extends a round for churn and fault scenarios; the zero
// value is an honest round with every trainer present.
type RoundOptions struct {
	// Behaviors injects per-aggregator deviations (nil for all-honest).
	Behaviors map[string]Behavior
	// Absent lists trainers crashed this round: they neither train nor
	// upload, and aggregation proceeds on the partial set at t_train.
	Absent map[string]bool
	// Standbys maps partition -> a peer aggregator that watches the
	// partition's aggregators for signs of life (pub/sub announcements or
	// an accepted global update) and, when none appear before the
	// failover deadline, executes the partition's aggregation itself —
	// the §III-D takeover generalized across partitions.
	Standbys map[int]string
	// Late lists trainers that train this round but miss the upload
	// window: their deltas are stashed and folded into the next applied
	// round with an age-discounted weight (see lateDecay).
	Late map[string]bool
	// Corrupt marks trainers that upload Byzantine gradients this round:
	// the stored block is tampered while the published commitment stays
	// honest, so only commitment verification (the BatchVerify fallback
	// path) can catch it.
	Corrupt map[string]bool
	// Quorum, in (0,1), lets aggregators close their gradient wait with
	// ceil(Quorum·n) of the n expected gradients once QuorumWait has
	// passed — a round degrades to m-of-n instead of idling out t_train
	// on stragglers. Stragglers miss the round here; Task folds
	// their deltas into the next round with an age-discounted weight.
	// Quorum is invalid in verifiable mode: the directory's gradient-set
	// closure gate holds global updates until every expected gradient
	// arrived or t_train passed, which contradicts proceeding early.
	Quorum     float64
	QuorumWait time.Duration
}

// RunRound executes one FL round. Absent trainers skip the round entirely,
// late trainers train but miss the upload window (their deltas fold into
// the next applied round), and standby aggregators watch their assigned
// partitions. If the protocol blocks a malicious round, the global model
// is left unchanged and Applied is false.
func (t *Task) RunRound(ctx context.Context, opts RoundOptions) (RoundMetrics, *IterationResult, error) {
	round := t.round
	train := t.session.startSpan("train", "trainers", round, obs.SpanContext{})
	deltas, loss, err := t.localDeltas(round, opts.Absent)
	train.endErr(err)
	if err != nil {
		return RoundMetrics{}, nil, err
	}
	// Stragglers trained, but their uploads miss the round (Algorithm 1,
	// 10-12): pull their deltas out of the iteration and stash them.
	stashed := 0
	for tr, isLate := range opts.Late {
		if !isLate {
			continue
		}
		d, ok := deltas[tr]
		if !ok {
			continue // also absent: nothing was trained
		}
		delete(deltas, tr)
		t.late = append(t.late, lateDelta{trainer: tr, round: round, delta: d})
		stashed++
	}
	if stashed > 0 && len(deltas) == 0 {
		return RoundMetrics{}, nil, fmt.Errorf("core: every trainer is late in round %d", round)
	}
	res, err := t.session.runIteration(ctx, round, deltas, opts)
	if err != nil {
		return RoundMetrics{}, res, err
	}
	metrics := RoundMetrics{Round: round, Loss: loss, Detected: res.Detected()}
	if len(res.Incomplete) == 0 && res.AvgDelta != nil {
		for i := range t.global {
			t.global[i] += res.AvgDelta[i]
		}
		metrics.Applied = true
		metrics.LateFolded = t.foldLate(round)
	}
	t.round++
	return metrics, res, nil
}

// foldLate folds stashed deltas from rounds before the current one into
// the global model, each weighted lateDecay^age/n — the straggler's
// averaged contribution, discounted per round of staleness. Entries
// stashed this round stay for the next applied round.
func (t *Task) foldLate(round int) int {
	if len(t.late) == 0 {
		return 0
	}
	folded := 0
	n := float64(len(t.session.cfg.Trainers))
	kept := t.late[:0]
	for _, ld := range t.late {
		if ld.round >= round {
			kept = append(kept, ld)
			continue
		}
		sc := t.session.startSpan("late_fold", ld.trainer, round, obs.SpanContext{})
		age := round - ld.round
		w := math.Pow(lateDecay, float64(age)) / n
		for i := range t.global {
			t.global[i] += w * ld.delta[i]
		}
		folded++
		sc.attr("from_round", strconv.Itoa(ld.round))
		sc.attr("weight", strconv.FormatFloat(w, 'g', 3, 64))
		sc.end()
	}
	t.late = kept
	return folded
}

// Evaluate sets the model to the current global parameters and scores it.
func (t *Task) Evaluate(d *ml.Dataset) (accuracy, loss float64, err error) {
	if err := t.model.SetParams(t.global); err != nil {
		return 0, 0, err
	}
	return ml.Accuracy(t.model, d), ml.Loss(t.model, d), nil
}

// CentralizedRound computes what one round of centralized FedAvg (the
// reference the paper's §V compares against) would produce from the same
// state, without touching the task.
func (t *Task) CentralizedRound(round int) ([]float64, error) {
	locals := make([]*ml.Dataset, len(t.session.cfg.Trainers))
	for i, tr := range t.session.cfg.Trainers {
		locals[i] = t.locals[tr]
	}
	cfg := t.sgd
	cfg.Seed = int64(round)
	next, _, err := ml.FedAvgRound(t.model, t.global, locals, cfg)
	return next, err
}

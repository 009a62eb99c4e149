package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ipls/internal/cid"
	"ipls/internal/directory"
	"ipls/internal/identity"
	"ipls/internal/model"
	"ipls/internal/obs"
	"ipls/internal/pedersen"
	"ipls/internal/scalar"
	"ipls/internal/storage"
)

// Directory is the client view of the directory service used by trainers
// and aggregators. *directory.Service implements it in-process; the
// transport package provides a TCP-backed implementation. Both also
// implement the rest of sessionDirectory, which NewSession requires.
type Directory interface {
	Publish(ctx context.Context, rec directory.Record) error
	Lookup(ctx context.Context, addr directory.Addr) (directory.Record, error)
	GradientsFor(ctx context.Context, iter, partition int, aggregator string) []directory.Record
	PartialUpdates(ctx context.Context, iter, partition int) []directory.Record
	Update(ctx context.Context, iter, partition int) (directory.Record, error)
	PartitionAccumulator(ctx context.Context, iter, partition int) (pedersen.Commitment, error)
	AggregatorAccumulator(ctx context.Context, iter, partition int, aggregator string) (pedersen.Commitment, int, error)
	VerifyPartialUpdate(ctx context.Context, iter, partition int, aggregator string, data []byte) (bool, error)
}

// Announcer is storage's IPFS-style pub/sub (§IV-B: "aggregators use the
// IPFS pub/sub functionality to publish their IPFS hashes for their partial
// updates"), part of the store every Session requires. Discovery through
// pub/sub is a hint — partial updates are still verified against the
// directory's accumulated commitments, so a forged announcement can at
// worst waste a download.
type Announcer interface {
	Announce(topic, from string, data []byte)
	Listen(topic string, since int) ([]storage.Announcement, int)
	ForgetTopic(topic string)
}

// Scheduler is the directory's enforcement of per-iteration t_train
// deadlines (§III-D), part of the directory every Session requires:
// RunIteration announces the schedule at the start of every iteration and
// the directory rejects gradients that arrive late.
type Scheduler interface {
	SetSchedule(iter int, tTrain time.Time)
}

// sessionStore is everything a Session relies on from storage: blocks,
// pub/sub, reads by content from any replica, merges that carry a span
// context, and deletion.
type sessionStore interface {
	storage.Client
	Announcer
	Fetch(ctx context.Context, c cid.CID) ([]byte, error)
	MergeGetSpan(ctx context.Context, nodeID string, cs []cid.CID, parent obs.SpanContext) ([]byte, error)
	DeleteAll(c cid.CID)
}

// sessionDirectory is everything a Session relies on from the directory:
// records, schedules, batched publishes and listing by iteration.
type sessionDirectory interface {
	Directory
	Scheduler
	PublishBatch(ctx context.Context, recs []directory.Record) error
	RecordsForIter(iter int) []directory.Record
}

var (
	_ sessionStore     = (*storage.Network)(nil)
	_ sessionDirectory = (*directory.Service)(nil)
)

// ErrTimeout indicates a protocol phase exceeded its schedule deadline
// (t_train or t_sync, §III-D).
var ErrTimeout = errors.New("core: schedule deadline exceeded")

// Session executes the protocol for one task against pluggable storage and
// directory backends. A single Session can drive any number of roles; it is
// safe for concurrent use. It keeps no state about other actors: what one
// role learns of another (a peer's partial, a trainer's strikes or
// quarantine) it reads from storage and the directory, so one Session per
// actor runs the protocol exactly as one shared Session does.
type Session struct {
	cfg     *Config
	store   sessionStore
	dir     sessionDirectory
	params  *pedersen.Params
	quant   *scalar.Quantizer
	field   *scalar.Field
	spans   obs.SpanSink
	meter   obs.ResourceMeter
	metrics sessionMetrics
	keyring *identity.Keyring
}

// SetKeyring attaches the private keys this process controls; records
// published for those IDs are signed, which authenticated directories
// (Service.SetRegistry) require.
func (s *Session) SetKeyring(k *identity.Keyring) { s.keyring = k }

// signRecord attaches the uploader's signature when the session holds its
// key.
func (s *Session) signRecord(rec *directory.Record) {
	if s.keyring == nil {
		return
	}
	if kp := s.keyring.Signer(rec.Addr.Uploader); kp != nil {
		rec.Signature = kp.Sign(rec.SigningBytes())
	}
}

// PedersenParams deterministically derives the task's commitment
// parameters; all parties (and the directory) compute the same ones. It
// returns nil when the task is not verifiable.
func (c *Config) PedersenParams() (*pedersen.Params, error) {
	if !c.Verifiable {
		return nil, nil
	}
	maxLen := 0
	for i := 0; i < c.Spec.Partitions; i++ {
		if l := c.Spec.PartitionLen(i); l > maxLen {
			maxLen = l
		}
	}
	return pedersen.Setup(c.Curve, maxLen+1, "ipls/"+c.TaskID)
}

// ApplyAssignments registers the task's T_ij sets with a directory service
// (done by the bootstrapper before the task starts).
func (c *Config) ApplyAssignments(s *directory.Service) {
	for p := 0; p < c.Spec.Partitions; p++ {
		for _, agg := range c.Aggregators[p] {
			for _, tr := range c.TrainersOf(p, agg) {
				s.SetAssignment(p, tr, agg)
			}
		}
	}
}

// NewSession creates a protocol session. Both backends must implement the
// whole contract a Session relies on (storage.Network, directory.Service
// and transport.Client do); a backend that lacks part of it is refused here
// rather than degrading a round.
func NewSession(cfg *Config, store storage.Client, dir Directory) (*Session, error) {
	st, ok := store.(sessionStore)
	if !ok {
		return nil, fmt.Errorf("core: storage backend %T lacks pub/sub, Fetch, MergeGetSpan or DeleteAll", store)
	}
	d, ok := dir.(sessionDirectory)
	if !ok {
		return nil, fmt.Errorf("core: directory backend %T lacks SetSchedule, PublishBatch or RecordsForIter", dir)
	}
	field := scalar.NewField(cfg.Curve.N)
	quant, err := scalar.NewQuantizer(field, cfg.QuantShift)
	if err != nil {
		return nil, err
	}
	params, err := cfg.PedersenParams()
	if err != nil {
		return nil, err
	}
	return &Session{
		cfg:    cfg,
		store:  st,
		dir:    d,
		params: params,
		quant:  quant,
		field:  field,
	}, nil
}

// NewLocalStack wires a complete in-memory deployment: a storage network
// with the configured nodes, a directory service (with assignments and
// commitment parameters applied) and a session over them. replicas is the
// storage replication factor.
func NewLocalStack(cfg *Config, replicas int) (*Session, *storage.Network, *directory.Service, error) {
	field := scalar.NewField(cfg.Curve.N)
	net := storage.NewNetwork(field, replicas)
	for _, id := range cfg.StorageNodes {
		net.AddNode(id)
	}
	params, err := cfg.PedersenParams()
	if err != nil {
		return nil, nil, nil, err
	}
	dir := directory.New(params, net)
	cfg.ApplyAssignments(dir)
	sess, err := NewSession(cfg, net, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	return sess, net, dir, nil
}

// Quantizer returns the session's fixed-point quantizer.
func (s *Session) Quantizer() *scalar.Quantizer { return s.quant }

// poll retries fn every PollInterval until it reports done, the deadline
// passes, or the context is cancelled.
func (s *Session) poll(ctx context.Context, deadline time.Time, fn func() (bool, error)) error {
	for {
		done, err := fn()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return ErrTimeout
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(s.cfg.PollInterval):
		}
	}
}

// TrainerUpload implements the trainer's upload half of Algorithm 1: the
// model delta is split into partitions, each partition is quantized (with
// the averaging counter appended), stored on the trainer's upload node, and
// its record — including the Pedersen commitment in verifiable mode — is
// published to the directory.
func (s *Session) TrainerUpload(ctx context.Context, trainer string, iter int, delta []float64) error {
	return s.trainerUpload(ctx, obs.SpanContext{}, trainer, iter, delta, false)
}

func (s *Session) trainerUpload(ctx context.Context, parent obs.SpanContext, trainer string, iter int, delta []float64, corrupt bool) (err error) {
	defer observeSince(s.metrics.phaseUpload, time.Now())
	sc := s.startSpan("upload", trainer, iter, parent)
	defer func() { sc.endErr(err) }()
	parts, err := model.Split(s.cfg.Spec, delta)
	if err != nil {
		return fmt.Errorf("core: trainer %s: %w", trainer, err)
	}
	recs := make([]directory.Record, 0, len(parts))
	for i, part := range parts {
		data, err := model.QuantizeEncode(s.quant, part)
		if err != nil {
			return fmt.Errorf("core: trainer %s partition %d: %w", trainer, i, err)
		}
		// The commitment's pre-image is the honest gradient, decoded
		// before a corrupt trainer touches the bytes.
		var values []*big.Int
		if s.params != nil {
			block, err := model.DecodeBlock(data)
			if err != nil {
				return fmt.Errorf("core: trainer %s partition %d: %w", trainer, i, err)
			}
			values = block.Values
		}
		if corrupt {
			// Byzantine injection: commit to the honest gradient but
			// store a tampered block, so the CID matches the stored bytes
			// and only commitment verification can catch the lie.
			addToElement(s.field, data[4:], big.NewInt(1))
		}
		put := sc.child("store_put")
		put.attr("partition", fmt.Sprint(i))
		c, node, err := s.putWithFallback(ctx, put, s.cfg.UploadNode(i, trainer), data)
		put.bytes(int64(len(data)))
		if err == nil {
			put.attr("node", node)
		}
		put.endErr(err)
		if err != nil {
			return fmt.Errorf("core: trainer %s upload partition %d: %w", trainer, i, err)
		}
		rec := directory.Record{
			Addr: directory.Addr{Uploader: trainer, Partition: i, Iter: iter, Type: directory.TypeGradient},
			CID:  c,
			Node: node,
			// The upload root's context travels with the record: whoever
			// downloads this gradient can causally link back to the upload.
			Span: sc.ctxRef(),
		}
		if s.params != nil {
			commit := sc.child("commit")
			commit.attr("partition", fmt.Sprint(i))
			com, err := s.params.Commit(values)
			commit.endErr(err)
			if err != nil {
				return fmt.Errorf("core: trainer %s commit partition %d: %w", trainer, i, err)
			}
			rec.Commitment = com
		}
		s.signRecord(&rec)
		recs = append(recs, rec)
	}
	// Announce all partitions in one directory round trip (§VI's
	// load-reduction optimization).
	pub := sc.child("dir_publish")
	err = s.dir.PublishBatch(ctx, recs)
	pub.endErr(err)
	if errors.Is(err, directory.ErrQuarantined) {
		// The directory banned this trainer after proven-Byzantine
		// uploads; it sits the task out rather than failing the round.
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: trainer %s publish: %w", trainer, err)
	}
	s.metrics.gradientsUploaded.Add(int64(len(recs)))
	return nil
}

// TrainerCollect implements the trainer's download half of Algorithm 1: it
// waits for the global update of every partition, downloads and
// CID-verifies the blocks, divides by the averaging counter and reassembles
// the full averaged model delta.
func (s *Session) TrainerCollect(ctx context.Context, iter int) ([]float64, error) {
	return s.trainerCollect(ctx, obs.SpanContext{}, iter)
}

func (s *Session) trainerCollect(ctx context.Context, parent obs.SpanContext, iter int) (_ []float64, err error) {
	defer observeSince(s.metrics.phaseCollect, time.Now())
	sc := s.startSpan("collect", "trainer", iter, parent)
	defer func() { sc.endErr(err) }()
	deadline := time.Now().Add(s.cfg.TSync)
	parts := make([][]float64, s.cfg.Spec.Partitions)
	for i := 0; i < s.cfg.Spec.Partitions; i++ {
		var rec directory.Record
		wait := sc.child("update_wait")
		wait.attr("partition", fmt.Sprint(i))
		err := s.poll(ctx, deadline, func() (bool, error) {
			r, err := s.dir.Update(ctx, iter, i)
			if errors.Is(err, directory.ErrNotFound) {
				return false, nil
			}
			if err != nil {
				return false, err
			}
			rec = r
			return true, nil
		})
		wait.endErr(err)
		if err != nil {
			return nil, fmt.Errorf("core: await update iter %d partition %d: %w", iter, i, err)
		}
		dl := sc.child("download")
		dl.attr("partition", fmt.Sprint(i))
		dl.link(rec.Span)
		data, err := s.readBlock(ctx, dl, rec.Node, rec.CID)
		dl.bytes(int64(len(data)))
		dl.endErr(err)
		if err != nil {
			return nil, fmt.Errorf("core: download update partition %d: %w", i, err)
		}
		avg, err := model.DecodeDequantize(s.quant, data)
		if err != nil {
			return nil, fmt.Errorf("core: dequantize update partition %d: %w", i, err)
		}
		parts[i] = avg
		s.metrics.updatesCollected.Inc()
	}
	return model.Join(s.cfg.Spec, parts)
}

// AggregatorReport summarizes what one aggregator did in an iteration.
type AggregatorReport struct {
	ID        string
	Partition int
	Iter      int
	Behavior  Behavior
	// ExecutedBy names the standby peer that actually executed this role
	// after a crash-driven failover (empty when the aggregator itself ran).
	ExecutedBy string

	// GradientsAggregated counts trainer gradients folded into the
	// partial update; MergeDownloads counts merge-and-download requests.
	GradientsAggregated int
	MergeDownloads      int
	// InvalidPartials lists peer aggregators whose partial updates failed
	// commitment verification; MissingPeers lists peers that never
	// published; TookOverFor lists peers whose work this aggregator redid.
	InvalidPartials []string
	MissingPeers    []string
	TookOverFor     []string
	// ScreenedOut lists trainers whose gradients exceeded the configured
	// norm bound and were excluded from the aggregate.
	ScreenedOut []string
	// PubSubDiscoveries counts peer partial updates discovered through
	// pub/sub announcements rather than directory polling.
	PubSubDiscoveries int
	// PublishedGlobal is true if this aggregator's global update was
	// accepted; GlobalRejected is true if the directory refused it
	// (verifiable mode catching a malicious aggregate).
	PublishedGlobal bool
	GlobalRejected  bool
}

// AggregatorRun executes one aggregator role for one iteration: collect the
// assigned trainers' gradients (via merge-and-download when enabled),
// aggregate, publish the partial update, synchronize with peer aggregators
// of the same partition (verifying their partials in verifiable mode and
// taking over for missing or cheating peers), and publish the global
// update. The behavior parameter injects the malicious deviations of §III-A.
func (s *Session) AggregatorRun(ctx context.Context, agg string, partition, iter int, behavior Behavior) (*AggregatorReport, error) {
	return s.aggregatorRun(ctx, obs.SpanContext{}, agg, partition, iter, behavior, RoundOptions{}, "")
}

// aggregatorRun executes the role; executedBy names the standby peer
// running it after a failover (empty when the aggregator runs itself).
func (s *Session) aggregatorRun(ctx context.Context, parent obs.SpanContext, agg string, partition, iter int, behavior Behavior, opts RoundOptions, executedBy string) (_ *AggregatorReport, err error) {
	if behavior == 0 {
		behavior = BehaviorHonest
	}
	report := &AggregatorReport{ID: agg, Partition: partition, Iter: iter, Behavior: behavior, ExecutedBy: executedBy}
	if behavior == BehaviorDropout {
		return report, nil // crashed before doing anything
	}
	sc := s.startSpan("aggregate", agg, iter, parent)
	sc.attr("partition", fmt.Sprint(partition))
	if executedBy != "" {
		sc.event("standby_takeover", 0, executedBy)
	}
	defer func() { sc.endErr(err) }()
	start := time.Now()
	defer func() {
		// Aggregation latency per iteration: run start to accepted global.
		if report.PublishedGlobal {
			observeSince(s.metrics.aggregationLatency, start)
		}
	}()
	expected := s.cfg.TrainersOf(partition, agg)
	if len(expected) == 0 {
		return report, fmt.Errorf("core: aggregator %s has no trainers for partition %d", agg, partition)
	}
	want := s.expectedGradients(iter, expected)

	// Phase 1: collect gradients from my trainers (Algorithm 1, 28-34).
	wait := sc.child("gradient_wait")
	recs, err := s.awaitGradients(ctx, wait, iter, partition, agg, want, time.Now().Add(s.cfg.TTrain), opts)
	wait.attr("gradients", fmt.Sprint(len(recs)))
	wait.endErr(err)
	if err != nil {
		return report, err
	}
	// Link the uploads this aggregation depends on: the records carry the
	// uploaders' span contexts across the directory boundary.
	for _, rec := range recs {
		sc.link(rec.Span)
	}
	fetch := sc.child("fetch_gradients")
	blocks, merges, err := s.collectBlocks(ctx, fetch, recs, report)
	fetch.endErr(err)
	if err != nil {
		return report, err
	}
	observeSince(s.metrics.phaseGradients, start)
	report.GradientsAggregated = len(recs) - len(report.ScreenedOut)
	report.MergeDownloads = merges

	// Phase 2: aggregate (possibly maliciously) and publish the partial.
	partial, err := applyBehavior(s.field, blocks, behavior)
	if err != nil {
		return report, err
	}
	home := s.cfg.AggregatorHome(agg)
	peers := s.cfg.Aggregators[partition]
	if len(peers) == 1 {
		// Sole aggregator: the partial is the global update.
		return report, s.publishGlobal(ctx, sc, report, agg, partition, iter, home, partial)
	}

	pp := sc.child("partial_publish")
	pp.bytes(int64(len(partial)))
	partialCID, partialNode, err := s.putWithFallback(ctx, pp, home, partial)
	if err != nil {
		pp.endErr(err)
		return report, fmt.Errorf("core: %s upload partial: %w", agg, err)
	}
	partialRec := directory.Record{
		Addr: directory.Addr{Uploader: agg, Partition: partition, Iter: iter, Type: directory.TypePartialUpdate},
		CID:  partialCID,
		Node: partialNode,
		Span: pp.ctxRef(),
	}
	s.signRecord(&partialRec)
	if err := s.dir.Publish(ctx, partialRec); err != nil {
		pp.endErr(err)
		return report, fmt.Errorf("core: %s publish partial: %w", agg, err)
	}
	// Announce the partial's hash over pub/sub so peers discover it
	// without polling the directory (§IV-B).
	topic := storage.Topic(s.cfg.TaskID, iter, partition)
	if data, err := json.Marshal(partialRec); err == nil {
		s.store.Announce(topic, agg, data)
	}
	pp.end()

	// Phase 3: synchronize with the other aggregators of this partition
	// (Algorithm 1, 37-42), verifying partials in verifiable mode (§IV-B).
	// Peer partials are discovered via pub/sub, with the directory
	// consulted once after t_sync; verification is always against the
	// directory's accumulated commitments.
	partials := map[string][]byte{agg: partial}
	cursor := 0
	discoverPartials := func() []directory.Record {
		msgs, next := s.store.Listen(topic, cursor)
		cursor = next
		var recs []directory.Record
		for _, msg := range msgs {
			var rec directory.Record
			if err := json.Unmarshal(msg.Data, &rec); err != nil {
				continue // garbage announcement: ignore
			}
			if rec.Addr.Type != directory.TypePartialUpdate ||
				rec.Addr.Iter != iter || rec.Addr.Partition != partition {
				continue
			}
			report.PubSubDiscoveries++
			recs = append(recs, rec)
		}
		return recs
	}
	// markInvalid records a peer whose partial failed; the verify span's
	// verdict attribute says why.
	markInvalid := func(peer, verdict string, vs *spanScope) {
		report.InvalidPartials = appendUnique(report.InvalidPartials, peer)
		vs.attr("verdict", verdict)
		vs.end()
	}
	sync := sc.child("sync_wait")
	processRecs := func(recs []directory.Record) error {
		for _, rec := range recs {
			peer := rec.Addr.Uploader
			if _, have := partials[peer]; have || contains(report.InvalidPartials, peer) {
				continue
			}
			// One verify span per peer partial examined, linked to the
			// peer's publish span carried in the record.
			vs := sync.child("verify")
			vs.attr("peer", peer)
			vs.link(rec.Span)
			data, err := s.readBlock(ctx, vs, rec.Node, rec.CID)
			if err != nil {
				markInvalid(peer, "unretrievable", vs)
				continue
			}
			vs.bytes(int64(len(data)))
			if s.params != nil {
				vStart := time.Now()
				ok, err := s.dir.VerifyPartialUpdate(ctx, iter, partition, peer, data)
				observeSince(s.metrics.phaseVerify, vStart)
				if err != nil {
					vs.endErr(err)
					return err
				}
				if !ok {
					s.metrics.verifyFail.Inc()
					markInvalid(peer, "rejected", vs)
					continue
				}
				s.metrics.verifyPass.Inc()
			}
			if _, err := model.ElementCount(data); err != nil {
				markInvalid(peer, "malformed", vs)
				continue
			}
			partials[peer] = data
			vs.attr("verdict", "accepted")
			vs.end()
		}
		return nil
	}
	deadline := time.Now().Add(s.cfg.TSync)
	_ = s.poll(ctx, deadline, func() (bool, error) { // deadline expiry is handled below, not an error
		if err := processRecs(discoverPartials()); err != nil {
			return false, err
		}
		return len(partials)+len(report.InvalidPartials) >= len(peers), nil
	})
	// A peer may have published to the directory without a (delivered)
	// announcement; consult the directory once before declaring anyone
	// missing.
	if len(partials)+len(report.InvalidPartials) < len(peers) {
		if err := processRecs(s.dir.PartialUpdates(ctx, iter, partition)); err != nil {
			sync.end()
			return report, err
		}
	}
	sync.end()

	// Phase 4: take over for peers that never produced a valid partial —
	// download their trainers' gradients and redo their aggregation
	// ("whenever an aggregator does not respond, another aggregator
	// downloads his gradients on his behalf", §III-D).
	for _, peer := range peers {
		if _, ok := partials[peer]; ok {
			continue
		}
		if !contains(report.InvalidPartials, peer) {
			report.MissingPeers = appendUnique(report.MissingPeers, peer)
		}
		// Wait for the peer's full trainer set (bounded by t_train) —
		// taking over from a partial set would drop late-but-in-time
		// gradients from the aggregate.
		to := sc.child("takeover")
		to.attr("peer", peer)
		peerWant := s.expectedGradients(iter, s.cfg.TrainersOf(partition, peer))
		peerRecs, err := s.awaitGradients(ctx, to, iter, partition, peer, peerWant, time.Now().Add(s.cfg.TTrain), opts)
		if err != nil || len(peerRecs) == 0 {
			to.endErr(err)
			continue
		}
		for _, rec := range peerRecs {
			to.link(rec.Span)
		}
		peerBlocks, _, err := s.collectBlocks(ctx, to, peerRecs, report)
		if err != nil {
			to.endErr(err)
			return report, fmt.Errorf("core: %s take over %s: %w", agg, peer, err)
		}
		redo, err := model.Merge(s.field, peerBlocks...)
		if err != nil {
			to.endErr(err)
			return report, err
		}
		to.end()
		partials[peer] = redo
		report.TookOverFor = append(report.TookOverFor, peer)
		report.GradientsAggregated += len(peerRecs)
		s.metrics.takeovers.Inc()
	}

	// Phase 5: fold all partials into the global update (Algorithm 1, 43-44).
	ordered := make([][]byte, 0, len(partials))
	for _, peer := range peers {
		if b, ok := partials[peer]; ok {
			ordered = append(ordered, b)
		}
	}
	global, err := model.Merge(s.field, ordered...)
	if err != nil {
		return report, err
	}
	return report, s.publishGlobal(ctx, sc, report, agg, partition, iter, home, global)
}

// standbyWatch runs a standby peer aggregator for a partition: it polls
// for signs of life from the partition's own aggregators — a pub/sub
// announcement on the iteration topic or an accepted global update in
// the directory — until a failover deadline (t_train after the watch
// starts). If none appear, the partition's aggregators crashed outright
// (a dropout never announces a partial, §III-D) and the standby executes
// the partition's lead aggregator role itself, using the directory
// records the crashed role would have used. The returned report, when
// non-nil, is the takeover's; a healthy partition returns (nil, nil).
func (s *Session) standbyWatch(ctx context.Context, parent obs.SpanContext, standby string, partition, iter int, opts RoundOptions) (*AggregatorReport, error) {
	deadline := time.Now().Add(s.cfg.TTrain)
	topic := storage.Topic(s.cfg.TaskID, iter, partition)
	cursor := 0
	alive := false
	err := s.poll(ctx, deadline, func() (bool, error) {
		if _, err := s.dir.Update(ctx, iter, partition); err == nil {
			alive = true
			return true, nil
		}
		msgs, next := s.store.Listen(topic, cursor)
		cursor = next
		if len(msgs) > 0 {
			alive = true
			return true, nil
		}
		return false, nil
	})
	if alive {
		return nil, nil
	}
	if err != nil && !errors.Is(err, ErrTimeout) {
		return nil, err
	}
	lead := s.cfg.Aggregators[partition][0]
	s.metrics.standbyTakeovers.Inc()
	rep, err := s.aggregatorRun(ctx, parent, lead, partition, iter, BehaviorHonest, opts, standby)
	if err != nil {
		// The watch can race a slow-but-alive aggregator; if the partition
		// completed anyway, the takeover losing that race is not a failure.
		if _, uerr := s.dir.Update(ctx, iter, partition); uerr == nil {
			return rep, nil
		}
		return rep, fmt.Errorf("core: standby %s takeover of partition %d: %w", standby, partition, err)
	}
	return rep, nil
}

// awaitGradients polls the directory until all expected gradient records
// for (iter, partition, aggregator) are visible. With a quorum option, a
// round that has m = ceil(Quorum·want) gradients after QuorumWait
// proceeds without the stragglers — graceful degradation instead of
// idling out the whole t_train window on one slow trainer. A quorum cut
// is a quorum_proceed event on sc naming how many of want arrived.
func (s *Session) awaitGradients(ctx context.Context, sc *spanScope, iter, partition int, agg string, want int, deadline time.Time, opts RoundOptions) ([]directory.Record, error) {
	need := want
	var quorumAt time.Time
	if opts.Quorum > 0 && opts.Quorum < 1 {
		need = int(math.Ceil(opts.Quorum * float64(want)))
		if need < 1 {
			need = 1
		}
		quorumAt = time.Now().Add(opts.QuorumWait)
	}
	var recs []directory.Record
	err := s.poll(ctx, deadline, func() (bool, error) {
		recs = s.dir.GradientsFor(ctx, iter, partition, agg)
		if len(recs) >= want {
			return true, nil
		}
		if need < want && len(recs) >= need && !time.Now().Before(quorumAt) {
			s.metrics.quorumProceeds.Inc()
			sc.event("quorum_proceed", 0, strconv.Itoa(len(recs))+" of "+strconv.Itoa(want))
			return true, nil
		}
		return false, nil
	})
	if errors.Is(err, ErrTimeout) && len(recs) > 0 {
		// Late trainers miss the round (Algorithm 1, 10-12); aggregate
		// what arrived.
		return recs, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: %s await gradients: %w", agg, err)
	}
	return recs, nil
}

// collectBlocks retrieves the gradient blocks for records and checks each
// against its published commitment in verifiable mode (§IV-B). Records
// are grouped by provider when merge-and-download is on and screening is
// off; otherwise each record is its own group, since screening needs each
// gradient separately. A group of one is read through readBlock, a larger
// group merged on its provider; a group whose merge fails is split into
// groups of one. One random-linear-combination BatchVerify covers every
// group of the partition; only if it fails is each group verified alone,
// and a rejected merge is re-fetched record by record. A record that
// fails its own commitment goes to reportByzantine and is left out, while
// honest blocks stay. Norm screening, when configured, then runs on the
// verified blocks. It returns the blocks, encoded, in group order and the
// number of accepted merges.
func (s *Session) collectBlocks(ctx context.Context, sc *spanScope, recs []directory.Record, report *AggregatorReport) ([][]byte, int, error) {
	groups := s.downloadGroups(recs)
	fetched := make([][]byte, 0, len(groups))
	for i := 0; i < len(groups); i++ {
		if grp := groups[i]; len(grp) > 1 {
			b, err := s.mergeDownload(ctx, sc, grp)
			if err == nil {
				fetched = append(fetched, b)
				continue
			}
			// The provider cannot merge: read each record from any replica,
			// giving up §III-E's bandwidth saving rather than the round.
			s.failover(sc, s.metrics.failoverMerge, "merge_get", grp[0].Node, err)
			groups = slices.Replace(groups, i, i+1, singletons(grp)...)
		}
		b, err := s.fetchGradient(ctx, sc, groups[i][0])
		if err != nil {
			return nil, 0, err
		}
		fetched = append(fetched, b)
	}
	batchOK, vecs, wants, err := s.batchVerify(groups, fetched)
	if err != nil {
		return nil, 0, err
	}
	merges := 0
	blocks := make([][]byte, 0, len(groups))
	accept := func(rec directory.Record, b []byte) {
		// Screening implies one record per group, so rec is b's uploader.
		if s.cfg.ScreenNorm > 0 && s.blockNorm(b) > s.cfg.ScreenNorm {
			before := len(report.ScreenedOut)
			report.ScreenedOut = appendUnique(report.ScreenedOut, rec.Addr.Uploader)
			if len(report.ScreenedOut) > before {
				s.metrics.screenedOut.Inc()
				sc.event("screened_out", 0, rec.Addr.Uploader)
			}
			return
		}
		blocks = append(blocks, b)
	}
	for i, grp := range groups {
		ok := batchOK
		if !ok {
			if ok, err = s.params.Verify(vecs[i], wants[i]); err != nil {
				return nil, merges, err
			}
		}
		switch {
		case ok:
			if len(grp) > 1 {
				merges++
				s.metrics.mergeDownloads.Inc()
			}
			accept(grp[0], fetched[i])
		case len(grp) == 1:
			s.reportByzantine(ctx, sc, grp[0])
		default:
			// The provider cheated, or one of the gradients it merged is
			// not a pre-image of its commitment: check each record alone.
			for _, rec := range grp {
				b, err := s.fetchGradient(ctx, sc, rec)
				if err != nil {
					return nil, merges, err
				}
				vec, err := model.DecodeBlock(b)
				if err != nil {
					return nil, merges, err
				}
				ok, err := s.params.Verify(vec.Values, rec.Commitment)
				if err != nil {
					return nil, merges, err
				}
				if !ok {
					s.reportByzantine(ctx, sc, rec)
					continue
				}
				accept(rec, b)
			}
		}
	}
	if s.cfg.ScreenNorm > 0 && len(blocks) == 0 {
		return nil, 0, fmt.Errorf("core: every gradient exceeded the screening norm %v", s.cfg.ScreenNorm)
	}
	return blocks, merges, nil
}

// downloadGroups splits records into download groups: one per provider,
// in node order, when merge-and-download is on and screening is off;
// otherwise one per record, in record order.
func (s *Session) downloadGroups(recs []directory.Record) [][]directory.Record {
	if !s.cfg.MergeAndDownload || s.cfg.ScreenNorm > 0 {
		return singletons(recs)
	}
	sorted := slices.Clone(recs)
	slices.SortStableFunc(sorted, func(a, b directory.Record) int { return strings.Compare(a.Node, b.Node) })
	var groups [][]directory.Record
	for len(sorted) > 0 {
		n := 1
		for n < len(sorted) && sorted[n].Node == sorted[0].Node {
			n++
		}
		groups = append(groups, sorted[:n:n])
		sorted = sorted[n:]
	}
	return groups
}

// singletons splits records into groups of one, in record order.
func singletons(recs []directory.Record) [][]directory.Record {
	groups := make([][]directory.Record, len(recs))
	for i := range recs {
		groups[i] = recs[i : i+1 : i+1]
	}
	return groups
}

// mergeDownload fetches the sum of a provider group's blocks in one
// merge-and-download request (§III-E). The merge_download span's context
// rides the request to the storage node, which parents its own "merge"
// span under it — the cross-node half of the causal trace. A sum that is
// not framed as a block fails the request.
func (s *Session) mergeDownload(ctx context.Context, sc *spanScope, grp []directory.Record) ([]byte, error) {
	node := grp[0].Node
	cids := make([]cid.CID, len(grp))
	for i, rec := range grp {
		cids[i] = rec.CID
	}
	md := sc.child("merge_download")
	md.attr("node", node)
	md.attr("blocks", fmt.Sprint(len(grp)))
	mStart := time.Now()
	data, err := s.store.MergeGetSpan(ctx, node, cids, md.ctx())
	observeSince(s.metrics.phaseMerge, mStart)
	md.bytes(int64(len(data)))
	md.endErr(err)
	if err != nil {
		return nil, err
	}
	if _, err := model.ElementCount(data); err != nil {
		return nil, err
	}
	return data, nil
}

// batchVerify decodes every group's block and checks it against the
// product of the group's published commitments with one BatchVerify. It
// returns the verdict, the decoded blocks and those products, against
// which a failed batch is checked group by group. In plain mode there is
// nothing to check and nothing is decoded.
func (s *Session) batchVerify(groups [][]directory.Record, blocks [][]byte) (bool, [][]*big.Int, []pedersen.Commitment, error) {
	if s.params == nil {
		return true, nil, nil, nil
	}
	vecs := make([][]*big.Int, len(groups))
	wants := make([]pedersen.Commitment, len(groups))
	for i, grp := range groups {
		b, err := model.DecodeBlock(blocks[i])
		if err != nil {
			return false, nil, nil, err
		}
		vecs[i] = b.Values
		if len(grp) == 1 {
			wants[i] = grp[0].Commitment
			continue
		}
		coms := make([]pedersen.Commitment, len(grp))
		for j, rec := range grp {
			coms[j] = rec.Commitment
		}
		if wants[i], err = s.params.Combine(coms...); err != nil {
			return false, nil, nil, err
		}
	}
	s.metrics.batchVerifies.Inc()
	ok, err := s.params.BatchVerify(vecs, wants)
	if err != nil || !ok {
		s.metrics.batchVerifyFail.Inc() // attributed group by group
		return false, vecs, wants, nil
	}
	return true, vecs, wants, nil
}

// blockNorm returns the L2 norm of a single trainer's dequantized gradient
// partition (excluding the averaging counter), read from its encoded
// block, whose framing the download checked.
func (s *Session) blockNorm(data []byte) float64 {
	n, _ := model.ElementCount(data)
	vals := make([]float64, max(n-1, 0))
	s.quant.DecodeBytes(vals, data[4:])
	var sum float64
	for _, v := range vals {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// reportByzantine handles a gradient block that is not a pre-image of
// its published commitment: the upload — not the storage provider — is
// at fault, since the block already passed CID verification. The record
// is expunged from the directory, which re-verifies before removing
// anything, counts the strike and quarantines a repeat offender; the
// honest remainder of the round then still verifies against the
// partition accumulator. An expunge that finds no record means a peer
// already expunged, and counted, the upload. Otherwise the rejection is
// counted here, also when the directory cannot expunge (over TCP today).
func (s *Session) reportByzantine(ctx context.Context, sc *spanScope, rec directory.Record) {
	var err error
	// A probe, not the contract: transport.Client has no ExpungeGradient,
	// and benchmark/bench_test.go pins that (ROADMAP 13(h)).
	if expunger, ok := s.dir.(interface {
		ExpungeGradient(ctx context.Context, addr directory.Addr) error
	}); ok {
		err = expunger.ExpungeGradient(ctx, rec.Addr)
		if errors.Is(err, directory.ErrNotFound) {
			return
		}
	}
	s.metrics.byzantineRejects.Inc()
	sc.event("byzantine_reject", 0, rec.Addr.Uploader+" "+rec.CID.Short())
	if err != nil {
		sc.event("expunge_failed", 0, err.Error())
	}
}

// quarantined returns the directory's quarantined trainers with the first
// iteration each is excluded from, or nil when the directory keeps no
// such list.
func (s *Session) quarantined() map[string]int {
	// A probe, not the contract: transport.Client has no Quarantined, and
	// the benchmark's directory decorators, whose method sets
	// benchmark/bench_test.go pins, do not forward it (ROADMAP 13(h)).
	if q, ok := s.dir.(interface{ Quarantined() map[string]int }); ok {
		return q.Quarantined()
	}
	return nil
}

// expectedGradients is how many of the trainers' gradients an aggregator
// waits for in iter. Trainers the directory quarantined by iter never
// publish again, so waiting for them would idle out t_train (the
// directory's closure gate excludes them too).
func (s *Session) expectedGradients(iter int, trainers []string) int {
	banned := s.quarantined()
	want := len(trainers)
	for _, tr := range trainers {
		if from, ok := banned[tr]; ok && iter >= from {
			want--
		}
	}
	if want == 0 {
		return len(trainers)
	}
	return want
}

// putWithFallback stores data on the preferred node, falling back to the
// other storage nodes if it is unavailable — the availability behaviour the
// replicated storage network is there to provide (§VI). It returns the CID
// and the node that actually accepted the block.
func (s *Session) putWithFallback(ctx context.Context, sc *spanScope, preferred string, data []byte) (cid.CID, string, error) {
	c, err := s.store.Put(ctx, preferred, data)
	if err == nil {
		return c, preferred, nil
	}
	for _, node := range s.cfg.StorageNodes {
		if node == preferred {
			continue
		}
		if c, err2 := s.store.Put(ctx, node, data); err2 == nil {
			s.failover(sc, s.metrics.failoverPut, "put", preferred, err)
			return c, node, nil
		}
	}
	return "", "", err
}

// readBlock is the session's one block read: from the recorded holder,
// else by content from any live replica (§III: a block stays retrievable
// while one replica lives). Bytes that do not hash to the CID count as a
// failed read, so the result is right whichever node served it.
func (s *Session) readBlock(ctx context.Context, sc *spanScope, node string, id cid.CID) ([]byte, error) {
	data, err := s.store.Get(ctx, node, id)
	if err == nil && !cid.Verify(data, id) {
		err = storage.ErrIntegrity
	}
	if err == nil {
		return data, nil
	}
	data, ferr := s.store.Fetch(ctx, id)
	if ferr == nil && !cid.Verify(data, id) {
		ferr = storage.ErrIntegrity
	}
	if ferr != nil {
		return nil, fmt.Errorf("core: read %s from %s: %w (by content: %v)", id.Short(), node, err, ferr)
	}
	s.failover(sc, s.metrics.failoverGet, "get", node, err)
	return data, nil
}

// failover records one taken fallback: a failover event on sc naming the
// operation, the node that failed it and its error, and one
// failovers_total{op}.
func (s *Session) failover(sc *spanScope, c *obs.Counter, op, node string, cause error) {
	c.Inc()
	sc.event("failover", 0, op+" "+node+": "+cause.Error())
}

// fetchGradient reads one gradient block; bytes that are not framed as a
// block fail the read.
func (s *Session) fetchGradient(ctx context.Context, sc *spanScope, rec directory.Record) ([]byte, error) {
	data, err := s.readBlock(ctx, sc, rec.Node, rec.CID)
	if err != nil {
		return nil, err
	}
	if _, err := model.ElementCount(data); err != nil {
		return nil, err
	}
	return data, nil
}

// publishGlobal uploads and publishes the global update for a partition.
// In verifiable mode the directory may reject it (caught cheating); only
// the first valid update wins.
func (s *Session) publishGlobal(ctx context.Context, parent *spanScope, report *AggregatorReport, agg string, partition, iter int, home string, data []byte) (err error) {
	defer observeSince(s.metrics.phasePublish, time.Now())
	gp := parent.child("global_publish")
	defer func() { gp.endErr(err) }()
	gp.bytes(int64(len(data)))
	c, node, err := s.putWithFallback(ctx, gp, home, data)
	if err != nil {
		return fmt.Errorf("core: %s upload global update: %w", agg, err)
	}
	gp.attr("node", node)
	rec := directory.Record{
		Addr: directory.Addr{Uploader: agg, Partition: partition, Iter: iter, Type: directory.TypeUpdate},
		CID:  c,
		Node: node,
		Span: gp.ctxRef(),
	}
	s.signRecord(&rec)
	// The directory refuses updates while the partition's gradient set is
	// still open (ErrTooEarly); retry until it closes or t_sync expires,
	// when the ErrTooEarly falls through to the default case.
	var pubErr error
	err = s.poll(ctx, time.Now().Add(s.cfg.TSync), func() (bool, error) {
		pubErr = s.dir.Publish(ctx, rec)
		return !errors.Is(pubErr, directory.ErrTooEarly), nil
	})
	if err != nil && !errors.Is(err, ErrTimeout) {
		return err
	}
	switch err = pubErr; {
	case err == nil:
		report.PublishedGlobal = true
		gp.attr("outcome", "accepted")
		s.metrics.globalsPublished.Inc()
		return nil
	case errors.Is(err, directory.ErrVerificationFailed):
		report.GlobalRejected = true
		gp.attr("outcome", "rejected")
		s.metrics.globalsRejected.Inc()
		return nil
	case errors.Is(err, directory.ErrAlreadyFinal):
		gp.attr("outcome", "peer-won")
		return nil // a peer won the race with a valid update
	default:
		return fmt.Errorf("core: %s publish global update: %w", agg, err)
	}
}

// CleanupIteration garbage-collects an iteration's gradient and
// partial-update blocks from the storage network once the round is over —
// the §VI observation that protocol data is only needed briefly, and what
// keeps the system's storage footprint constant per round (in contrast to
// the blockchain baseline). Global updates are kept so slow trainers can
// still catch up. It returns the number of blocks removed.
func (s *Session) CleanupIteration(ctx context.Context, iter int) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	recs := s.dir.RecordsForIter(iter)
	for _, rec := range recs {
		s.store.DeleteAll(rec.CID)
	}
	for p := 0; p < s.cfg.Spec.Partitions; p++ {
		s.store.ForgetTopic(storage.Topic(s.cfg.TaskID, iter, p))
	}
	return len(recs), nil
}

// IterationResult is the outcome of a full protocol iteration.
type IterationResult struct {
	// AvgDelta is the averaged model delta every trainer downloads.
	AvgDelta []float64
	// Reports holds one report per aggregator role (including dropouts).
	Reports map[string]*AggregatorReport
	// Takeovers holds, per partition, the report of a standby-executed
	// aggregation after a crash-driven failover (see RoundOptions.Standbys).
	// Keyed by partition so a dropout's own report in Reports survives.
	Takeovers map[int]*AggregatorReport
	// Incomplete lists partitions for which no global update was
	// accepted (e.g. a sole malicious aggregator in verifiable mode).
	Incomplete []int
}

// Detected reports whether any malicious aggregation was caught, either by
// the directory (rejected global) or by peer aggregators (invalid partial).
func (r *IterationResult) Detected() bool {
	for _, rep := range r.Reports {
		if rep.GlobalRejected || len(rep.InvalidPartials) > 0 {
			return true
		}
	}
	return false
}

// RunIteration executes one complete FL iteration: all trainers upload
// their deltas concurrently, all aggregators run concurrently (with
// optional per-aggregator behaviors), and the averaged delta is collected.
// The deltas map provides each trainer's locally computed model delta.
func (s *Session) RunIteration(ctx context.Context, iter int, deltas map[string][]float64, behaviors map[string]Behavior) (*IterationResult, error) {
	return s.runIteration(ctx, iter, deltas, RoundOptions{Behaviors: behaviors})
}

// runIteration is RunIteration under churn and faults. Once opts marks any
// trainer absent or late, deltas may leave trainers out; those upload
// nothing this iteration.
func (s *Session) runIteration(ctx context.Context, iter int, deltas map[string][]float64, opts RoundOptions) (_ *IterationResult, err error) {
	allowAbsent := len(opts.Absent) > 0 || len(opts.Late) > 0
	if !allowAbsent && len(deltas) != len(s.cfg.Trainers) {
		return nil, fmt.Errorf("core: got %d deltas for %d trainers", len(deltas), len(s.cfg.Trainers))
	}
	if opts.Quorum != 0 {
		if opts.Quorum < 0 || opts.Quorum >= 1 {
			return nil, fmt.Errorf("core: quorum fraction %v outside (0,1)", opts.Quorum)
		}
		if s.params != nil {
			return nil, errors.New("core: quorum rounds are incompatible with verifiable mode (the directory holds updates until the gradient set closes)")
		}
	}
	// The iteration span roots the trace: every role span below runs as a
	// child, so the critical path tiles the whole iteration.
	it := s.startSpan("iteration", "session", iter, obs.SpanContext{})
	defer func() { it.endErr(err) }()
	s.dir.SetSchedule(iter, time.Now().Add(s.cfg.TTrain))

	var wg sync.WaitGroup
	var mu sync.Mutex
	result := &IterationResult{Reports: make(map[string]*AggregatorReport)}
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}

	// Trainers the directory quarantined sit the task out; the harness
	// reports each quarantine once, in the iteration it takes effect.
	banned := s.quarantined()
	for _, tr := range s.cfg.Trainers {
		if from, ok := banned[tr]; ok && iter >= from {
			if iter == from {
				s.metrics.byzantineQuarantines.Inc()
				it.event("byzantine_quarantine", 0, tr)
			}
			continue
		}
		delta, ok := deltas[tr]
		if !ok {
			if allowAbsent {
				continue // crashed trainer: uploads nothing this iteration
			}
			return nil, fmt.Errorf("core: missing delta for trainer %s", tr)
		}
		wg.Add(1)
		go func(tr string, delta []float64) {
			defer wg.Done()
			if err := s.trainerUpload(ctx, it.ctx(), tr, iter, delta, opts.Corrupt[tr]); err != nil {
				fail(err)
			}
		}(tr, delta)
	}
	for _, ref := range s.cfg.AllAggregators() {
		behavior := opts.Behaviors[ref.ID]
		wg.Add(1)
		go func(ref AggregatorRef, b Behavior) {
			defer wg.Done()
			rep, err := s.aggregatorRun(ctx, it.ctx(), ref.ID, ref.Partition, iter, b, opts, "")
			mu.Lock()
			result.Reports[ref.ID] = rep
			mu.Unlock()
			if err != nil {
				fail(err)
			}
		}(ref, behavior)
	}
	for partition, standby := range opts.Standbys {
		wg.Add(1)
		go func(partition int, standby string) {
			defer wg.Done()
			rep, err := s.standbyWatch(ctx, it.ctx(), standby, partition, iter, opts)
			if rep != nil {
				mu.Lock()
				if result.Takeovers == nil {
					result.Takeovers = make(map[int]*AggregatorReport)
				}
				result.Takeovers[partition] = rep
				mu.Unlock()
			}
			if err != nil {
				fail(err)
			}
		}(partition, standby)
	}
	wg.Wait()
	if firstErr != nil {
		return result, firstErr
	}

	for p := 0; p < s.cfg.Spec.Partitions; p++ {
		if _, err := s.dir.Update(ctx, iter, p); err != nil {
			result.Incomplete = append(result.Incomplete, p)
		}
	}
	if len(result.Incomplete) > 0 {
		return result, nil // detected-and-blocked round: no usable update
	}

	avg, err := s.trainerCollect(ctx, it.ctx(), iter)
	if err != nil {
		return result, err
	}
	result.AvgDelta = avg
	return result, nil
}

func contains(list []string, v string) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

func appendUnique(list []string, v string) []string {
	if contains(list, v) {
		return list
	}
	return append(list, v)
}

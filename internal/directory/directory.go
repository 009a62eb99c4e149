// Package directory implements the paper's directory service (§III-C): the
// map from protocol-level addressing information
// (uploader, partition, iteration, type) to the content ID of the
// corresponding block in the decentralized storage network.
//
// In verifiable mode (§IV-B) the directory additionally maintains, for each
// partition and iteration, the accumulated Pedersen commitment over all
// gradients published for it (and per-aggregator accumulators for the
// multi-aggregator sync phase), and refuses to record an updated partition
// that is not a pre-image of the accumulated commitment. This is what makes
// dropped or altered gradients detectable.
//
// The service is run by the (trusted) bootstrapper of the FL task.
package directory

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"ipls/internal/cid"
	"ipls/internal/identity"
	"ipls/internal/model"
	"ipls/internal/obs"
	"ipls/internal/pedersen"
)

// Type tags the kind of block an address refers to.
type Type uint8

// Block types, mirroring the paper's "gradient", "partial update" and
// "global update" addressing values.
const (
	TypeGradient Type = iota + 1
	TypePartialUpdate
	TypeUpdate
)

// String returns the paper's name for the type.
func (t Type) String() string {
	switch t {
	case TypeGradient:
		return "gradient"
	case TypePartialUpdate:
		return "partial_update"
	case TypeUpdate:
		return "update"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Addr is the addressing meta-information attached to every uploaded block:
// addr = (uploader_id, partition_id, iter, type). Global updates use the
// publishing aggregator as uploader but are looked up by (partition, iter).
type Addr struct {
	Uploader  string `json:"uploader"`
	Partition int    `json:"partition"`
	Iter      int    `json:"iter"`
	Type      Type   `json:"type"`
}

// Record maps an address to the CID of the block and the storage node that
// holds it, plus the uploader's commitment in verifiable mode and, when
// the task authenticates participants, the uploader's signature over
// SigningBytes.
type Record struct {
	Addr       Addr                `json:"addr"`
	CID        cid.CID             `json:"cid"`
	Node       string              `json:"node"`
	Commitment pedersen.Commitment `json:"commitment,omitempty"`
	Signature  []byte              `json:"signature,omitempty"`
	// Span is the uploader's span context — the causal-trace envelope
	// that lets a downloader link its spans to the span that produced the
	// block, across process and node boundaries. Like Node it is excluded
	// from SigningBytes: it is observability metadata, not protocol state,
	// and a relay must be able to strip or forward it freely.
	Span *obs.SpanContext `json:"span,omitempty"`
}

// SigningBytes returns the canonical byte string a participant signs: the
// full address, the CID and the commitment. The storage node is excluded
// (fallback uploads may move a block without invalidating the signature);
// the address binds the signature to one (uploader, partition, iteration,
// type) slot, so a signed record cannot be replayed elsewhere.
func (r Record) SigningBytes() []byte {
	out := make([]byte, 0, 96+len(r.Commitment))
	out = append(out, []byte("ipls/record/")...)
	out = append(out, []byte(r.Addr.Uploader)...)
	out = append(out, 0)
	out = appendInt(out, r.Addr.Partition)
	out = appendInt(out, r.Addr.Iter)
	out = append(out, byte(r.Addr.Type))
	out = append(out, []byte(r.CID)...)
	out = append(out, 0)
	out = append(out, r.Commitment...)
	return out
}

func appendInt(b []byte, v int) []byte {
	var tmp [8]byte
	u := uint64(int64(v))
	for i := 0; i < 8; i++ {
		tmp[i] = byte(u >> (56 - 8*i))
	}
	return append(b, tmp[:]...)
}

// Errors reported by the directory.
var (
	// ErrTooLate indicates a gradient was published after the
	// iteration's t_train deadline; late trainers miss the round
	// (Algorithm 1, lines 10-12).
	ErrTooLate = errors.New("directory: gradient published after t_train")
	// ErrTooEarly indicates a global update was published while the
	// partition's gradient set was still open (not all trainers have
	// published and t_train has not passed). The aggregator should keep
	// collecting and retry.
	ErrTooEarly = errors.New("directory: update published before the gradient set closed")
	// ErrVerificationFailed indicates a published update is not a
	// pre-image of the accumulated gradient commitment: the aggregator
	// dropped or altered gradients.
	ErrVerificationFailed = errors.New("directory: update verification failed")
	// ErrConflict indicates a different block was already published for
	// the same address.
	ErrConflict = errors.New("directory: conflicting publication for address")
	// ErrAlreadyFinal indicates a global update has already been accepted
	// for the partition ("only the first aggregator who achieves the true
	// globally updated partition writes back", §IV-B).
	ErrAlreadyFinal = errors.New("directory: global update already recorded")
	// ErrMissingCommitment indicates a gradient publish lacked its
	// commitment in verifiable mode.
	ErrMissingCommitment = errors.New("directory: gradient publish requires a commitment")
	// ErrNotFound indicates no record exists for the queried address.
	ErrNotFound = errors.New("directory: record not found")
	// ErrBadSignature indicates a publish whose signature is missing or
	// does not verify against the registered public key.
	ErrBadSignature = errors.New("directory: bad record signature")
	// ErrQuarantined indicates a publish from a trainer the directory has
	// quarantined after proven-Byzantine uploads.
	ErrQuarantined = errors.New("directory: uploader is quarantined")
	// ErrNotByzantine indicates an expunge request for a gradient that
	// re-verified clean: the accusation, not the upload, was wrong.
	ErrNotByzantine = errors.New("directory: gradient verifies against its commitment")
)

// strikeLimit is how many of a trainer's gradients ExpungeGradient removes
// before the directory quarantines the trainer from the next iteration.
const strikeLimit = 2

// BlockFetcher is the directory's minimal view of the storage network, used
// to retrieve updates for verification.
type BlockFetcher interface {
	Get(ctx context.Context, nodeID string, c cid.CID) ([]byte, error)
}

type iterAgg struct {
	iter int
	agg  string
}

// Stats counts directory traffic, relevant to the paper's "minimize the
// query load of the directory service" discussion (§VI). Publishes counts
// records; Requests counts API round trips (batching makes Requests <
// Publishes).
type Stats struct {
	Publishes     int
	Requests      int
	Lookups       int
	Verifications int
	Rejections    int
	// Expunged counts gradient records removed after re-verifying as
	// Byzantine (ExpungeGradient).
	Expunged int
}

func (s *Stats) add(o Stats) {
	s.Publishes += o.Publishes
	s.Requests += o.Requests
	s.Lookups += o.Lookups
	s.Verifications += o.Verifications
	s.Rejections += o.Rejections
	s.Expunged += o.Expunged
}

// partition holds everything the directory keys by (iter, partition) for
// one model partition, behind the partition's own lock, so traffic on one
// partition never waits for another partition's verification (§VI's
// sharded directory, without a second implementation).
type partition struct {
	mu      sync.Mutex
	records map[Addr]Record
	// Gradient records per iteration in publication order, so aggregators
	// can poll for new CIDs.
	gradients     map[int][]Record
	accPartition  map[int]pedersen.Commitment
	accAggregator map[iterAgg]pedersen.Commitment
	gradCount     map[iterAgg]int
	assignment    map[string]string   // trainer -> aggregator (T_ij)
	trainers      map[string][]string // aggregator -> trainers, registration order
	finals        map[int]Record
	// expunged counts gradients removed per iteration by ExpungeGradient,
	// so the gradient-set closure gate still accounts for every assigned
	// trainer.
	expunged map[int]int
	// stats counts the traffic this partition served; Requests stays
	// service-wide because one batch spans partitions.
	stats Stats
}

func newPartition() *partition {
	return &partition{
		records:       make(map[Addr]Record),
		gradients:     make(map[int][]Record),
		accPartition:  make(map[int]pedersen.Commitment),
		accAggregator: make(map[iterAgg]pedersen.Commitment),
		gradCount:     make(map[iterAgg]int),
		assignment:    make(map[string]string),
		trainers:      make(map[string][]string),
		finals:        make(map[int]Record),
		expunged:      make(map[int]int),
	}
}

// Service is an in-process directory service.
//
// Lock order: partsMu, then partition locks in ascending partition index,
// then mu. partsMu guards only the partition table; every path but
// Snapshot releases it before taking a partition lock. Snapshot holds it
// and takes every partition lock, so it is one atomic cut.
type Service struct {
	params  *pedersen.Params // nil => non-verifiable mode
	fetcher BlockFetcher

	partsMu sync.Mutex
	parts   map[int]*partition

	mu sync.Mutex
	// strikes counts each trainer's expunged gradients: every successful
	// ExpungeGradient is one independently re-verified offence.
	strikes map[string]int
	// quarantined maps a trainer to the first iteration from which its
	// publishes are rejected and it no longer counts toward a partition's
	// expected gradient set.
	quarantined map[string]int
	// schedules holds each iteration's t_train deadline; gradients
	// published later are rejected so the partition accumulator can
	// never drift from what aggregators collected (§III-D).
	schedules map[int]time.Time
	now       func() time.Time
	// registry, when set, makes the directory authenticate every publish
	// against the uploader's registered public key.
	registry *identity.Registry
	// stats holds the request count plus the counters a restored snapshot
	// carried in; Stats adds every partition's counters to it.
	stats Stats
}

// New creates a directory service. params may be nil for the plain
// (non-verifiable) protocol; fetcher is required only in verifiable mode,
// where the directory downloads published updates to check them.
func New(params *pedersen.Params, fetcher BlockFetcher) *Service {
	return &Service{
		params:      params,
		fetcher:     fetcher,
		parts:       make(map[int]*partition),
		strikes:     make(map[string]int),
		quarantined: make(map[string]int),
		schedules:   make(map[int]time.Time),
		now:         time.Now,
	}
}

// part returns the state of partition p, creating it on first use.
func (s *Service) part(p int) *partition {
	s.partsMu.Lock()
	defer s.partsMu.Unlock()
	pt := s.parts[p]
	if pt == nil {
		pt = newPartition()
		s.parts[p] = pt
	}
	return pt
}

// lock returns partition p with its lock held.
func (s *Service) lock(p int) *partition {
	pt := s.part(p)
	pt.mu.Lock()
	return pt
}

// partitionsLocked returns the partition indices in ascending (lock) order.
// The caller holds partsMu.
func (s *Service) partitionsLocked() []int {
	idx := make([]int, 0, len(s.parts))
	for p := range s.parts {
		idx = append(idx, p)
	}
	sort.Ints(idx)
	return idx
}

// eachPartition calls fn on every partition in ascending order, holding
// one partition lock at a time.
func (s *Service) eachPartition(fn func(p int, pt *partition)) {
	s.partsMu.Lock()
	idx := s.partitionsLocked()
	pts := make([]*partition, len(idx))
	for i, p := range idx {
		pts[i] = s.parts[p]
	}
	s.partsMu.Unlock()
	for i, pt := range pts {
		pt.mu.Lock()
		fn(idx[i], pt)
		pt.mu.Unlock()
	}
}

// SetRegistry makes the directory require a valid uploader signature on
// every published record.
func (s *Service) SetRegistry(r *identity.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registry = r
}

// SetClock replaces the wall clock, for deterministic tests.
func (s *Service) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// SetSchedule registers an iteration's t_train deadline. The bootstrapper
// announces it at the start of every iteration; gradient publications after
// the deadline are rejected with ErrTooLate.
func (s *Service) SetSchedule(iter int, tTrain time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.schedules[iter] = tTrain
}

// pastDeadline reports whether iter has a t_train deadline that has passed.
func (s *Service) pastDeadline(iter int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	deadline, ok := s.schedules[iter]
	return ok && s.now().After(deadline)
}

// SetAssignment registers that the trainer sends its gradients for the
// given partition to the given aggregator (the T_ij sets of §II). The
// bootstrapper configures this before the task starts. Registering a
// trainer again moves it to the new aggregator; re-registering the same
// assignment (a restart re-applying its config) changes nothing.
func (s *Service) SetAssignment(partition int, trainer, aggregator string) {
	pt := s.lock(partition)
	defer pt.mu.Unlock()
	pt.assign(trainer, aggregator)
}

func (pt *partition) assign(trainer, aggregator string) {
	prev, ok := pt.assignment[trainer]
	if ok && prev == aggregator {
		return
	}
	if ok {
		kept := pt.trainers[prev][:0]
		for _, t := range pt.trainers[prev] {
			if t != trainer {
				kept = append(kept, t)
			}
		}
		pt.trainers[prev] = kept
	}
	pt.assignment[trainer] = aggregator
	pt.trainers[aggregator] = append(pt.trainers[aggregator], trainer)
}

func (s *Service) countRequest() {
	s.mu.Lock()
	s.stats.Requests++
	s.mu.Unlock()
}

// Publish records an uploaded block. For gradients in verifiable mode the
// record must carry the uploader's commitment, which is folded into the
// partition and per-aggregator accumulators. For global updates in
// verifiable mode the directory fetches the block and verifies it against
// the accumulated partition commitment before accepting it.
func (s *Service) Publish(ctx context.Context, rec Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.countRequest()
	return s.publish(ctx, rec)
}

// PublishBatch records several uploads in one request — the §VI
// optimization that lets a trainer announce all of its partitions' CIDs in
// a single directory round trip. Records are applied in order; the first
// failure aborts the remainder.
func (s *Service) PublishBatch(ctx context.Context, recs []Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.countRequest()
	for i, rec := range recs {
		if err := s.publish(ctx, rec); err != nil {
			return fmt.Errorf("directory: batch record %d: %w", i, err)
		}
	}
	return nil
}

// publish applies one record under its partition's lock.
func (s *Service) publish(ctx context.Context, rec Record) error {
	pt := s.lock(rec.Addr.Partition)
	defer pt.mu.Unlock()
	pt.stats.Publishes++
	s.mu.Lock()
	registry := s.registry
	s.mu.Unlock()
	if registry != nil {
		pub, err := registry.Lookup(rec.Addr.Uploader)
		if err != nil {
			pt.stats.Rejections++
			return fmt.Errorf("%w: %v", ErrBadSignature, err)
		}
		if !identity.Verify(pub, rec.SigningBytes(), rec.Signature) {
			pt.stats.Rejections++
			return fmt.Errorf("%w: record from %q", ErrBadSignature, rec.Addr.Uploader)
		}
	}

	if existing, ok := pt.records[rec.Addr]; ok {
		if existing.CID == rec.CID {
			return nil // idempotent re-publish
		}
		return fmt.Errorf("%w: %+v", ErrConflict, rec.Addr)
	}

	switch rec.Addr.Type {
	case TypeGradient:
		return s.publishGradientLocked(pt, rec)
	case TypePartialUpdate:
		pt.records[rec.Addr] = rec
		return nil
	case TypeUpdate:
		return s.publishUpdateLocked(ctx, pt, rec)
	default:
		return fmt.Errorf("directory: unknown block type %v", rec.Addr.Type)
	}
}

func (s *Service) publishGradientLocked(pt *partition, rec Record) error {
	iter := rec.Addr.Iter
	s.mu.Lock()
	from, bad := s.quarantined[rec.Addr.Uploader]
	s.mu.Unlock()
	if bad && iter >= from {
		pt.stats.Rejections++
		return fmt.Errorf("%w: %q since iter %d", ErrQuarantined, rec.Addr.Uploader, from)
	}
	if s.pastDeadline(iter) {
		pt.stats.Rejections++
		return fmt.Errorf("%w: iter %d from %q", ErrTooLate, iter, rec.Addr.Uploader)
	}
	if s.params != nil {
		if len(rec.Commitment) == 0 {
			return ErrMissingCommitment
		}
		if !s.params.Valid(rec.Commitment) {
			return fmt.Errorf("directory: malformed commitment from %q", rec.Addr.Uploader)
		}
		// Accumulate C_i = ∏ C_ik for the partition.
		combined, err := s.combine(pt.accPartition[iter], rec.Commitment)
		if err != nil {
			return fmt.Errorf("directory: accumulate partition commitment: %w", err)
		}
		pt.accPartition[iter] = combined

		// Accumulate per-aggregator commitment for the trainers in T_ij.
		if agg, ok := pt.assignment[rec.Addr.Uploader]; ok {
			akey := iterAgg{iter, agg}
			acomb, err := s.combine(pt.accAggregator[akey], rec.Commitment)
			if err != nil {
				return fmt.Errorf("directory: accumulate aggregator commitment: %w", err)
			}
			pt.accAggregator[akey] = acomb
			pt.gradCount[akey]++
		}
	}
	pt.records[rec.Addr] = rec
	pt.gradients[iter] = append(pt.gradients[iter], rec)
	return nil
}

// combine folds c into an accumulator; a missing accumulator is the
// identity.
func (s *Service) combine(acc, c pedersen.Commitment) (pedersen.Commitment, error) {
	if acc == nil {
		acc = s.params.Identity()
	}
	return s.params.Combine(acc, c)
}

func (s *Service) publishUpdateLocked(ctx context.Context, pt *partition, rec Record) error {
	iter := rec.Addr.Iter
	if _, done := pt.finals[iter]; done {
		return fmt.Errorf("%w: iter %d partition %d", ErrAlreadyFinal, iter, rec.Addr.Partition)
	}
	if s.params != nil {
		// A global update may only land once the partition's gradient
		// set is closed: either every assigned trainer has published, or
		// t_train has passed (after which late gradients are rejected).
		// Otherwise a gradient arriving between aggregation and
		// verification would silently be dropped from an accepted
		// update.
		expected := s.expectedTrainers(pt, iter)
		// Expunged gradients still count toward closure: their trainers
		// did publish, the directory just removed the proven-Byzantine
		// records afterwards.
		got := len(pt.gradients[iter]) + pt.expunged[iter]
		if expected > 0 && got < expected && !s.pastDeadline(iter) {
			return fmt.Errorf("%w: iter %d partition %d has %d of %d gradients and t_train has not passed",
				ErrTooEarly, iter, rec.Addr.Partition, got, expected)
		}
		want := pt.accPartition[iter]
		if len(want) == 0 {
			return fmt.Errorf("directory: no accumulated commitment for %+v", rec.Addr)
		}
		pt.stats.Verifications++
		ok, err := s.verifyBlock(ctx, &rec, nil, want)
		if err != nil {
			return err
		}
		if !ok {
			pt.stats.Rejections++
			return fmt.Errorf("%w: iter %d partition %d by %q",
				ErrVerificationFailed, iter, rec.Addr.Partition, rec.Addr.Uploader)
		}
	}
	pt.records[rec.Addr] = rec
	pt.finals[iter] = rec
	return nil
}

// expectedTrainers returns how many trainers are assigned to the partition
// at the given iteration (0 when no assignments were registered, which
// disables the completeness gate). Trainers quarantined before the
// iteration are not expected to publish. The caller holds pt.mu.
func (s *Service) expectedTrainers(pt *partition, iter int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, trainers := range pt.trainers {
		for _, t := range trainers {
			if from, bad := s.quarantined[t]; bad && iter >= from {
				continue
			}
			total++
		}
	}
	return total
}

// verifyBlock reports whether a block is a pre-image of the commitment
// want. With a record it fetches the block from the record's storage node
// first; bytes that do not hash to the record's CID (tampering storage) or
// do not decode verify false. Fetch and commit failures are errors: they
// prove nothing about the block.
func (s *Service) verifyBlock(ctx context.Context, rec *Record, data []byte, want pedersen.Commitment) (bool, error) {
	if rec != nil {
		if s.fetcher == nil {
			return false, errors.New("directory: verifiable mode requires a block fetcher")
		}
		var err error
		if data, err = s.fetcher.Get(ctx, rec.Node, rec.CID); err != nil {
			return false, fmt.Errorf("directory: fetch %v for verification: %w", rec.Addr.Type, err)
		}
		if !cid.Verify(data, rec.CID) {
			return false, nil
		}
	}
	block, err := model.DecodeBlock(data)
	if err != nil {
		return false, nil // not even a valid block
	}
	got, err := s.params.Commit(block.Values)
	if err != nil {
		return false, fmt.Errorf("directory: recommit block: %w", err)
	}
	return got.Equal(want), nil
}

// ExpungeGradient removes a gradient record whose stored block is not a
// pre-image of its published commitment — a Byzantine upload reported by
// an aggregator. The directory does not take the accusation on faith: it
// refetches the block and re-verifies it itself, and refuses with
// ErrNotByzantine when the gradient checks out. On success the
// commitment is homomorphically removed from the partition and
// per-aggregator accumulators, so the remaining honest gradients still
// verify, and the slot is tombstoned so the gradient-set closure gate
// keeps accounting for the trainer. Each expunge is a strike against the
// uploader; at strikeLimit strikes the directory quarantines it from the
// iteration after the expunged gradient's. A record can be expunged only
// once (a repeat gets ErrNotFound), so each upload strikes at most once,
// however many aggregators report it.
func (s *Service) ExpungeGradient(ctx context.Context, addr Addr) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.countRequest()
	if s.params == nil {
		return errors.New("directory: expunge requires verifiable mode")
	}
	if addr.Type != TypeGradient {
		return fmt.Errorf("directory: expunge of non-gradient %+v", addr)
	}
	pt := s.lock(addr.Partition)
	defer pt.mu.Unlock()
	rec, ok := pt.records[addr]
	if !ok {
		return fmt.Errorf("%w: %+v", ErrNotFound, addr)
	}

	// Independent re-verification against the record's own commitment. A
	// fetch error is inconclusive (storage fault, not proof of tampering)
	// and aborts the expunge; a clean verification refutes the accusation.
	pt.stats.Verifications++
	clean, err := s.verifyBlock(ctx, &rec, nil, rec.Commitment)
	if err != nil {
		return err
	}
	if clean {
		return fmt.Errorf("%w: %+v", ErrNotByzantine, addr)
	}

	iter := addr.Iter
	if acc, ok := pt.accPartition[iter]; ok {
		rem, err := s.params.Uncombine(acc, rec.Commitment)
		if err != nil {
			return fmt.Errorf("directory: remove from partition accumulator: %w", err)
		}
		pt.accPartition[iter] = rem
	}
	if agg, ok := pt.assignment[addr.Uploader]; ok {
		akey := iterAgg{iter, agg}
		if aacc, ok := pt.accAggregator[akey]; ok {
			rem, err := s.params.Uncombine(aacc, rec.Commitment)
			if err != nil {
				return fmt.Errorf("directory: remove from aggregator accumulator: %w", err)
			}
			pt.accAggregator[akey] = rem
			pt.gradCount[akey]--
		}
	}
	delete(pt.records, addr)
	kept := pt.gradients[iter][:0]
	for _, g := range pt.gradients[iter] {
		if g.Addr != addr {
			kept = append(kept, g)
		}
	}
	pt.gradients[iter] = kept
	pt.expunged[iter]++
	pt.stats.Expunged++
	pt.stats.Rejections++
	s.mu.Lock()
	defer s.mu.Unlock()
	s.strikes[addr.Uploader]++
	if s.strikes[addr.Uploader] >= strikeLimit {
		s.quarantineLocked(addr.Uploader, iter+1)
	}
	return nil
}

// Quarantine rejects gradient publishes from the trainer starting at
// iteration fromIter and stops counting it toward its partitions'
// expected gradient sets from that iteration on. Quarantining a trainer
// again keeps the earliest effective iteration. ExpungeGradient
// quarantines at the strike limit on its own; this lets the bootstrapper
// ban a trainer directly.
func (s *Service) Quarantine(trainer string, fromIter int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quarantineLocked(trainer, fromIter)
}

func (s *Service) quarantineLocked(trainer string, fromIter int) {
	if cur, ok := s.quarantined[trainer]; ok && cur <= fromIter {
		return
	}
	s.quarantined[trainer] = fromIter
}

// Quarantined returns the quarantined trainers and the first iteration
// each is excluded from, or nil when nobody is quarantined.
func (s *Service) Quarantined() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.quarantined) == 0 {
		return nil
	}
	out := make(map[string]int, len(s.quarantined))
	for t, from := range s.quarantined {
		out[t] = from
	}
	return out
}

// Lookup returns the record for an exact address.
func (s *Service) Lookup(ctx context.Context, addr Addr) (Record, error) {
	if err := ctx.Err(); err != nil {
		return Record{}, err
	}
	pt := s.lock(addr.Partition)
	defer pt.mu.Unlock()
	pt.stats.Lookups++
	rec, ok := pt.records[addr]
	if !ok {
		return Record{}, fmt.Errorf("%w: %+v", ErrNotFound, addr)
	}
	return rec, nil
}

// GradientsFor returns the gradients published so far for (iter, partition)
// by trainers assigned to the given aggregator, in publication order. With
// an empty aggregator it returns all gradients for the partition.
func (s *Service) GradientsFor(ctx context.Context, iter, partition int, aggregator string) []Record {
	_ = ctx
	pt := s.lock(partition)
	defer pt.mu.Unlock()
	pt.stats.Lookups++
	var out []Record
	for _, rec := range pt.gradients[iter] {
		if aggregator != "" && pt.assignment[rec.Addr.Uploader] != aggregator {
			continue
		}
		out = append(out, rec)
	}
	return out
}

// PartialUpdates returns the partial updates published for (iter,
// partition), sorted by uploader for determinism.
func (s *Service) PartialUpdates(ctx context.Context, iter, partition int) []Record {
	_ = ctx
	pt := s.lock(partition)
	defer pt.mu.Unlock()
	pt.stats.Lookups++
	var out []Record
	for addr, rec := range pt.records {
		if addr.Type == TypePartialUpdate && addr.Iter == iter {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr.Uploader < out[j].Addr.Uploader })
	return out
}

// Update returns the accepted global update for (iter, partition), if any.
func (s *Service) Update(ctx context.Context, iter, partition int) (Record, error) {
	if err := ctx.Err(); err != nil {
		return Record{}, err
	}
	pt := s.lock(partition)
	defer pt.mu.Unlock()
	pt.stats.Lookups++
	rec, ok := pt.finals[iter]
	if !ok {
		return Record{}, fmt.Errorf("%w: update for iter %d partition %d", ErrNotFound, iter, partition)
	}
	return rec, nil
}

// PartitionAccumulator returns the accumulated commitment C_i over all
// gradients published for (iter, partition).
func (s *Service) PartitionAccumulator(ctx context.Context, iter, partition int) (pedersen.Commitment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.params == nil {
		return nil, errors.New("directory: not in verifiable mode")
	}
	pt := s.lock(partition)
	defer pt.mu.Unlock()
	acc, ok := pt.accPartition[iter]
	if !ok {
		return nil, fmt.Errorf("%w: partition accumulator iter %d partition %d", ErrNotFound, iter, partition)
	}
	return acc, nil
}

// AggregatorAccumulator returns the accumulated commitment ∏ C_ik over the
// gradients published by trainers in T_ij, plus how many have been folded
// in. Peer aggregators use this to verify partial updates (§IV-B).
func (s *Service) AggregatorAccumulator(ctx context.Context, iter, partition int, aggregator string) (pedersen.Commitment, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if s.params == nil {
		return nil, 0, errors.New("directory: not in verifiable mode")
	}
	pt := s.lock(partition)
	defer pt.mu.Unlock()
	key := iterAgg{iter, aggregator}
	acc, ok := pt.accAggregator[key]
	if !ok {
		return nil, 0, fmt.Errorf("%w: aggregator accumulator for %q", ErrNotFound, aggregator)
	}
	return acc, pt.gradCount[key], nil
}

// VerifyPartialUpdate checks that serialized block data matches the
// per-aggregator accumulated commitment — the check a peer aggregator runs
// before folding another aggregator's partial update into the global one.
func (s *Service) VerifyPartialUpdate(ctx context.Context, iter, partition int, aggregator string, data []byte) (bool, error) {
	acc, _, err := s.AggregatorAccumulator(ctx, iter, partition, aggregator)
	if err != nil {
		return false, err
	}
	return s.verifyBlock(ctx, nil, data, acc)
}

// RecordsForIter returns every gradient and partial-update record of an
// iteration, sorted deterministically. Global updates are excluded: they
// must stay retrievable until every trainer has collected them. Used by
// per-iteration garbage collection (§VI: blocks are "only needed for a
// short period of time").
func (s *Service) RecordsForIter(iter int) []Record {
	var out []Record
	s.eachPartition(func(_ int, pt *partition) {
		for addr, rec := range pt.records {
			if addr.Iter == iter && addr.Type != TypeUpdate {
				out = append(out, rec)
			}
		}
	})
	slices.SortFunc(out, func(a, b Record) int {
		return cmp.Or(cmp.Compare(a.Addr.Type, b.Addr.Type), cmp.Compare(a.Addr.Partition, b.Addr.Partition),
			cmp.Compare(a.Addr.Uploader, b.Addr.Uploader))
	})
	return out
}

// Stats returns the traffic counters, summed over partitions.
func (s *Service) Stats() Stats {
	var total Stats
	for _, st := range s.PartitionStats() {
		total.add(st)
	}
	s.mu.Lock()
	total.add(s.stats)
	s.mu.Unlock()
	return total
}

// PartitionStats returns each partition's traffic counters: the load a
// directory host would carry for the partitions it owns (§VI). Requests
// are counted service-wide, since one batch spans partitions, and a
// restored directory's carried-in counters belong to no partition.
func (s *Service) PartitionStats() map[int]Stats {
	out := make(map[int]Stats)
	s.eachPartition(func(p int, pt *partition) { out[p] = pt.stats })
	return out
}

package directory

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ipls/internal/cid"
	"ipls/internal/group"
	"ipls/internal/model"
	"ipls/internal/pedersen"
	"ipls/internal/scalar"
	"ipls/internal/storage"
)

type fixture struct {
	dir    *Service
	store  *storage.Network
	params *pedersen.Params
	field  *scalar.Field
	quant  *scalar.Quantizer
	rng    *rand.Rand
}

func newFixture(t *testing.T, verifiable bool) *fixture {
	t.Helper()
	curve := group.Secp256r1Fast()
	field := scalar.NewField(curve.N)
	quant, err := scalar.NewQuantizer(field, scalar.DefaultShift)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewNetwork(field, 1)
	store.AddNode("ipfs-0")
	store.AddNode("ipfs-1")
	var params *pedersen.Params
	if verifiable {
		params, err = pedersen.Setup(curve, 8, "dir-test")
		if err != nil {
			t.Fatal(err)
		}
	}
	return &fixture{
		dir:    New(params, store),
		store:  store,
		params: params,
		field:  field,
		quant:  quant,
		rng:    rand.New(rand.NewSource(42)),
	}
}

// uploadGradient quantizes a random gradient for a trainer, stores it, and
// publishes its record. It returns the block for later summing.
func (f *fixture) uploadGradient(t *testing.T, trainer string, iter, partition, dim int) model.Block {
	t.Helper()
	rec, block := f.gradientRecord(t, trainer, iter, partition, dim)
	if err := f.dir.Publish(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	return block
}

// gradientRecord quantizes and stores a random gradient for a trainer and
// returns its (unpublished) record and block.
func (f *fixture) gradientRecord(t *testing.T, trainer string, iter, partition, dim int) (Record, model.Block) {
	t.Helper()
	part := make([]float64, dim)
	for i := range part {
		part[i] = f.rng.NormFloat64()
	}
	block, err := model.Quantize(f.quant, part)
	if err != nil {
		t.Fatal(err)
	}
	data, err := block.Encode()
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.store.Put(context.Background(), "ipfs-0", data)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{
		Addr: Addr{Uploader: trainer, Partition: partition, Iter: iter, Type: TypeGradient},
		CID:  c,
		Node: "ipfs-0",
	}
	if f.params != nil {
		com, err := f.params.Commit(block.Values)
		if err != nil {
			t.Fatal(err)
		}
		rec.Commitment = com
	}
	return rec, block
}

// publishUpdate stores an update block and publishes it as the global
// update, returning the publish error.
func (f *fixture) publishUpdate(t *testing.T, agg string, iter, partition int, block model.Block) error {
	t.Helper()
	data, err := block.Encode()
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.store.Put(context.Background(), "ipfs-1", data)
	if err != nil {
		t.Fatal(err)
	}
	return f.dir.Publish(context.Background(), Record{
		Addr: Addr{Uploader: agg, Partition: partition, Iter: iter, Type: TypeUpdate},
		CID:  c,
		Node: "ipfs-1",
	})
}

func TestPublishLookupRoundTrip(t *testing.T) {
	f := newFixture(t, false)
	block := f.uploadGradient(t, "trainer-0", 1, 0, 4)
	_ = block
	rec, err := f.dir.Lookup(context.Background(), Addr{Uploader: "trainer-0", Partition: 0, Iter: 1, Type: TypeGradient})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Node != "ipfs-0" {
		t.Fatalf("wrong node %q", rec.Node)
	}
	if _, err := f.dir.Lookup(context.Background(), Addr{Uploader: "ghost", Type: TypeGradient}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound, got %v", err)
	}
}

func TestRepublishIdempotentConflictRejected(t *testing.T) {
	f := newFixture(t, false)
	data := []byte("block")
	c, _ := f.store.Put(context.Background(), "ipfs-0", data)
	addr := Addr{Uploader: "t0", Partition: 0, Iter: 0, Type: TypeGradient}
	rec := Record{Addr: addr, CID: c, Node: "ipfs-0"}
	if err := f.dir.Publish(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	if err := f.dir.Publish(context.Background(), rec); err != nil {
		t.Fatalf("idempotent republish should succeed: %v", err)
	}
	other := rec
	other.CID = cid.Sum([]byte("different"))
	if err := f.dir.Publish(context.Background(), other); !errors.Is(err, ErrConflict) {
		t.Fatalf("expected ErrConflict, got %v", err)
	}
}

func TestGradientRequiresCommitmentInVerifiableMode(t *testing.T) {
	f := newFixture(t, true)
	data := []byte("gradient")
	c, _ := f.store.Put(context.Background(), "ipfs-0", data)
	err := f.dir.Publish(context.Background(), Record{
		Addr: Addr{Uploader: "t0", Partition: 0, Iter: 0, Type: TypeGradient},
		CID:  c, Node: "ipfs-0",
	})
	if !errors.Is(err, ErrMissingCommitment) {
		t.Fatalf("expected ErrMissingCommitment, got %v", err)
	}
	err = f.dir.Publish(context.Background(), Record{
		Addr:       Addr{Uploader: "t0", Partition: 0, Iter: 0, Type: TypeGradient},
		CID:        c,
		Node:       "ipfs-0",
		Commitment: pedersen.Commitment([]byte{1, 2, 3}),
	})
	if err == nil {
		t.Fatal("expected malformed-commitment error")
	}
}

func TestPartitionAccumulatorMatchesCombine(t *testing.T) {
	f := newFixture(t, true)
	var blocks []model.Block
	for i := 0; i < 4; i++ {
		blocks = append(blocks, f.uploadGradient(t, fmt.Sprintf("t%d", i), 0, 0, 5))
	}
	acc, err := f.dir.PartitionAccumulator(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := model.Sum(f.field, blocks...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.params.Commit(sum.Values)
	if err != nil {
		t.Fatal(err)
	}
	if !acc.Equal(want) {
		t.Fatal("accumulated commitment != commitment to summed gradients")
	}
}

func TestHonestUpdateAccepted(t *testing.T) {
	f := newFixture(t, true)
	var blocks []model.Block
	for i := 0; i < 3; i++ {
		blocks = append(blocks, f.uploadGradient(t, fmt.Sprintf("t%d", i), 2, 1, 6))
	}
	sum, _ := model.Sum(f.field, blocks...)
	if err := f.publishUpdate(t, "agg-0", 2, 1, sum); err != nil {
		t.Fatalf("honest update rejected: %v", err)
	}
	rec, err := f.dir.Update(context.Background(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Addr.Uploader != "agg-0" {
		t.Fatal("wrong uploader recorded")
	}
	if f.dir.Stats().Verifications != 1 {
		t.Fatalf("expected 1 verification, got %d", f.dir.Stats().Verifications)
	}
}

func TestDroppedGradientDetected(t *testing.T) {
	f := newFixture(t, true)
	var blocks []model.Block
	for i := 0; i < 4; i++ {
		blocks = append(blocks, f.uploadGradient(t, fmt.Sprintf("t%d", i), 0, 0, 6))
	}
	// Malicious aggregator drops trainer t3's gradient.
	sum, _ := model.Sum(f.field, blocks[:3]...)
	err := f.publishUpdate(t, "agg-evil", 0, 0, sum)
	if !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("expected ErrVerificationFailed, got %v", err)
	}
	if _, err := f.dir.Update(context.Background(), 0, 0); !errors.Is(err, ErrNotFound) {
		t.Fatal("rejected update must not be recorded")
	}
	if f.dir.Stats().Rejections != 1 {
		t.Fatalf("rejection not counted")
	}
}

func TestAlteredGradientDetected(t *testing.T) {
	f := newFixture(t, true)
	var blocks []model.Block
	for i := 0; i < 4; i++ {
		blocks = append(blocks, f.uploadGradient(t, fmt.Sprintf("t%d", i), 0, 0, 6))
	}
	sum, _ := model.Sum(f.field, blocks...)
	// Alter one coordinate of the aggregate before publishing.
	sum.Values[2] = f.field.Add(sum.Values[2], sum.Values[0])
	err := f.publishUpdate(t, "agg-evil", 0, 0, sum)
	if !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("expected ErrVerificationFailed, got %v", err)
	}
}

func TestNonVerifiableModeAcceptsForgedUpdate(t *testing.T) {
	// The contrast case: without commitments the directory has no way to
	// notice a dropped gradient.
	f := newFixture(t, false)
	var blocks []model.Block
	for i := 0; i < 4; i++ {
		blocks = append(blocks, f.uploadGradient(t, fmt.Sprintf("t%d", i), 0, 0, 6))
	}
	sum, _ := model.Sum(f.field, blocks[:2]...) // half the gradients dropped
	if err := f.publishUpdate(t, "agg-evil", 0, 0, sum); err != nil {
		t.Fatalf("non-verifiable mode should accept anything: %v", err)
	}
}

func TestSecondGlobalUpdateRejected(t *testing.T) {
	f := newFixture(t, false)
	b := f.uploadGradient(t, "t0", 0, 0, 4)
	if err := f.publishUpdate(t, "agg-0", 0, 0, b); err != nil {
		t.Fatal(err)
	}
	err := f.publishUpdate(t, "agg-1", 0, 0, b)
	if !errors.Is(err, ErrAlreadyFinal) && !errors.Is(err, ErrConflict) {
		t.Fatalf("expected ErrAlreadyFinal, got %v", err)
	}
}

func TestGradientsForFiltersByAssignment(t *testing.T) {
	f := newFixture(t, false)
	f.dir.SetAssignment(0, "t0", "agg-a")
	f.dir.SetAssignment(0, "t1", "agg-a")
	f.dir.SetAssignment(0, "t2", "agg-b")
	for i := 0; i < 3; i++ {
		f.uploadGradient(t, fmt.Sprintf("t%d", i), 0, 0, 4)
	}
	recsA := f.dir.GradientsFor(context.Background(), 0, 0, "agg-a")
	if len(recsA) != 2 {
		t.Fatalf("agg-a should see 2 gradients, got %d", len(recsA))
	}
	recsAll := f.dir.GradientsFor(context.Background(), 0, 0, "")
	if len(recsAll) != 3 {
		t.Fatalf("expected 3 total gradients, got %d", len(recsAll))
	}
	pt := f.dir.lock(0)
	got := pt.trainers["agg-a"]
	pt.mu.Unlock()
	if len(got) != 2 || got[0] != "t0" || got[1] != "t1" {
		t.Fatalf("agg-a trainers = %v", got)
	}
}

func TestAggregatorAccumulatorAndPartialVerify(t *testing.T) {
	f := newFixture(t, true)
	f.dir.SetAssignment(0, "t0", "agg-a")
	f.dir.SetAssignment(0, "t1", "agg-a")
	f.dir.SetAssignment(0, "t2", "agg-b")
	var aBlocks []model.Block
	for i := 0; i < 3; i++ {
		b := f.uploadGradient(t, fmt.Sprintf("t%d", i), 0, 0, 4)
		if i < 2 {
			aBlocks = append(aBlocks, b)
		}
	}
	acc, count, err := f.dir.AggregatorAccumulator(context.Background(), 0, 0, "agg-a")
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("agg-a count = %d, want 2", count)
	}
	sum, _ := model.Sum(f.field, aBlocks...)
	want, _ := f.params.Commit(sum.Values)
	if !acc.Equal(want) {
		t.Fatal("aggregator accumulator mismatch")
	}
	// A correct partial update verifies; a tampered one does not.
	data, _ := sum.Encode()
	ok, err := f.dir.VerifyPartialUpdate(context.Background(), 0, 0, "agg-a", data)
	if err != nil || !ok {
		t.Fatalf("honest partial update rejected: ok=%v err=%v", ok, err)
	}
	sum.Values[0] = f.field.Add(sum.Values[0], sum.Values[1])
	bad, _ := sum.Encode()
	ok, err = f.dir.VerifyPartialUpdate(context.Background(), 0, 0, "agg-a", bad)
	if err != nil || ok {
		t.Fatalf("tampered partial update accepted: ok=%v err=%v", ok, err)
	}
	if ok, _ := f.dir.VerifyPartialUpdate(context.Background(), 0, 0, "agg-a", []byte("junk")); ok {
		t.Fatal("garbage accepted as partial update")
	}
	if _, _, err := f.dir.AggregatorAccumulator(context.Background(), 0, 0, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound for unknown aggregator, got %v", err)
	}
}

func TestCorruptedStorageBytesFailVerification(t *testing.T) {
	f := newFixture(t, true)
	b := f.uploadGradient(t, "t0", 0, 0, 4)
	data, _ := b.Encode()
	c, _ := f.store.Put(context.Background(), "ipfs-1", data)
	if err := f.store.Corrupt("ipfs-1", c); err != nil {
		t.Fatal(err)
	}
	err := f.dir.Publish(context.Background(), Record{
		Addr: Addr{Uploader: "agg-0", Partition: 0, Iter: 0, Type: TypeUpdate},
		CID:  c, Node: "ipfs-1",
	})
	if !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("expected ErrVerificationFailed on corrupted bytes, got %v", err)
	}
}

func TestNonVerifiableAccumulatorErrors(t *testing.T) {
	f := newFixture(t, false)
	if _, err := f.dir.PartitionAccumulator(context.Background(), 0, 0); err == nil {
		t.Fatal("expected error in non-verifiable mode")
	}
	if _, _, err := f.dir.AggregatorAccumulator(context.Background(), 0, 0, "a"); err == nil {
		t.Fatal("expected error in non-verifiable mode")
	}
	if _, err := f.dir.VerifyPartialUpdate(context.Background(), 0, 0, "a", nil); err == nil {
		t.Fatal("expected error in non-verifiable mode")
	}
}

func TestPartialUpdatesSorted(t *testing.T) {
	f := newFixture(t, false)
	for _, agg := range []string{"agg-b", "agg-a", "agg-c"} {
		data := []byte("partial-" + agg)
		c, _ := f.store.Put(context.Background(), "ipfs-0", data)
		err := f.dir.Publish(context.Background(), Record{
			Addr: Addr{Uploader: agg, Partition: 3, Iter: 1, Type: TypePartialUpdate},
			CID:  c, Node: "ipfs-0",
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	recs := f.dir.PartialUpdates(context.Background(), 1, 3)
	if len(recs) != 3 {
		t.Fatalf("expected 3 partials, got %d", len(recs))
	}
	for i, want := range []string{"agg-a", "agg-b", "agg-c"} {
		if recs[i].Addr.Uploader != want {
			t.Fatalf("partials not sorted: %v", recs)
		}
	}
}

func TestTypeString(t *testing.T) {
	if TypeGradient.String() != "gradient" ||
		TypePartialUpdate.String() != "partial_update" ||
		TypeUpdate.String() != "update" {
		t.Fatal("type names wrong")
	}
	if Type(9).String() != "type(9)" {
		t.Fatal("unknown type formatting wrong")
	}
	if err := New(nil, nil).Publish(context.Background(), Record{Addr: Addr{Type: Type(9)}}); err == nil {
		t.Fatal("unknown type should be rejected")
	}
}

func TestStatsCounting(t *testing.T) {
	f := newFixture(t, false)
	f.uploadGradient(t, "t0", 0, 0, 4)
	f.dir.GradientsFor(context.Background(), 0, 0, "")
	if _, err := f.dir.Lookup(context.Background(), Addr{Uploader: "t0", Partition: 0, Iter: 0, Type: TypeGradient}); err != nil {
		t.Fatal(err)
	}
	s := f.dir.Stats()
	if s.Publishes != 1 || s.Lookups != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// publishByzantine stores a random gradient for a trainer but publishes a
// commitment to other bytes, the tampered upload ExpungeGradient removes.
func (f *fixture) publishByzantine(t *testing.T, trainer string, iter, partition int) Record {
	t.Helper()
	rec, _ := f.gradientRecord(t, trainer, iter, partition, 4)
	_, other := f.gradientRecord(t, trainer, iter, partition, 4)
	var err error
	if rec.Commitment, err = f.params.Commit(other.Values); err != nil {
		t.Fatal(err)
	}
	if err := f.dir.Publish(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestExpungeCountsStrikes pins the strike policy: each expunged upload
// is one strike, a repeated expunge of the same upload is ErrNotFound and
// no strike, a refuted accusation is no strike, and the strikeLimit-th
// expunge quarantines the uploader from the next iteration.
func TestExpungeCountsStrikes(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t, true)
	first := f.publishByzantine(t, "t1", 0, 0)
	if err := f.dir.ExpungeGradient(ctx, first.Addr); err != nil {
		t.Fatal(err)
	}
	if err := f.dir.ExpungeGradient(ctx, first.Addr); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second expunge of one upload: %v, want ErrNotFound", err)
	}
	honest, _ := f.gradientRecord(t, "t1", 0, 1, 4)
	if err := f.dir.Publish(ctx, honest); err != nil {
		t.Fatal(err)
	}
	if err := f.dir.ExpungeGradient(ctx, honest.Addr); !errors.Is(err, ErrNotByzantine) {
		t.Fatalf("expunge of an honest upload: %v, want ErrNotByzantine", err)
	}
	if q := f.dir.Quarantined(); q != nil {
		t.Fatalf("quarantined after one strike: %v", q)
	}
	second := f.publishByzantine(t, "t1", 1, 0)
	if err := f.dir.ExpungeGradient(ctx, second.Addr); err != nil {
		t.Fatal(err)
	}
	if q := f.dir.Quarantined(); len(q) != 1 || q["t1"] != 2 {
		t.Fatalf("quarantined = %v, want map[t1:2]", q)
	}
	if got := f.dir.Stats().Expunged; got != 2 {
		t.Fatalf("expunged = %d, want 2", got)
	}
}

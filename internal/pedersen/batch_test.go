package pedersen

import (
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"ipls/internal/group"
	"ipls/internal/scalar"
)

func batchFixtures(t *testing.T, curve *group.Curve, m, n int, seed int64) (*Params, [][]*big.Int, []Commitment) {
	t.Helper()
	p, err := Setup(curve, n, "batch")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := scalar.NewQuantizer(p.Field(), scalar.DefaultShift)
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]*big.Int, m)
	cs := make([]Commitment, m)
	for j := 0; j < m; j++ {
		vecs[j] = randomVector(rng, q, n)
		c, err := p.Commit(vecs[j])
		if err != nil {
			t.Fatal(err)
		}
		cs[j] = c
	}
	return p, vecs, cs
}

func TestBatchVerifyAccepts(t *testing.T) {
	for _, curve := range []*group.Curve{group.Secp256k1(), group.Secp256r1Fast()} {
		p, vecs, cs := batchFixtures(t, curve, 5, 12, 31)
		ok, err := p.BatchVerify(vecs, cs)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%s: honest batch rejected", curve.Name)
		}
	}
}

// TestBatchVerifySoundness is the ISSUE's soundness criterion: a batch
// with any single corrupted upload must be rejected, whichever position
// the corruption lands in and whether the vector or the commitment is the
// side that lies.
func TestBatchVerifySoundness(t *testing.T) {
	p, vecs, cs := batchFixtures(t, group.Secp256k1(), 5, 12, 32)
	for j := range vecs {
		// Tamper the vector for upload j (commitment no longer matches).
		tampered := make([][]*big.Int, len(vecs))
		for k := range vecs {
			tampered[k] = vecs[k]
		}
		vj := make([]*big.Int, len(vecs[j]))
		copy(vj, vecs[j])
		vj[j%len(vj)] = p.Field().Add(vj[j%len(vj)], big.NewInt(1))
		tampered[j] = vj
		ok, err := p.BatchVerify(tampered, cs)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("batch accepted with tampered vector at %d", j)
		}

		// Swap in a valid-but-wrong commitment at position j.
		wrongC := make([]Commitment, len(cs))
		copy(wrongC, cs)
		other, err := p.Commit(vj)
		if err != nil {
			t.Fatal(err)
		}
		wrongC[j] = other
		ok, err = p.BatchVerify(vecs, wrongC)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("batch accepted with substituted commitment at %d", j)
		}
	}
}

func TestBatchVerifyMixedLengths(t *testing.T) {
	// Partitions can carry uploads of different widths; shorter vectors are
	// implicitly zero-extended by the linear combination and must verify.
	p, err := Setup(group.Secp256k1(), 8, "batch-mixed")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := scalar.NewQuantizer(p.Field(), scalar.DefaultShift)
	rng := rand.New(rand.NewSource(33))
	lens := []int{3, 8, 5}
	vecs := make([][]*big.Int, len(lens))
	cs := make([]Commitment, len(lens))
	for j, n := range lens {
		vecs[j] = randomVector(rng, q, n)
		cs[j], err = p.Commit(vecs[j])
		if err != nil {
			t.Fatal(err)
		}
	}
	ok, err := p.BatchVerify(vecs, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("mixed-length batch rejected")
	}
}

func TestBatchVerifySingleUpload(t *testing.T) {
	p, vecs, cs := batchFixtures(t, group.Secp256k1(), 1, 6, 34)
	ok, err := p.BatchVerify(vecs, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("single-upload batch rejected")
	}
	bad := make([]*big.Int, len(vecs[0]))
	copy(bad, vecs[0])
	bad[0] = p.Field().Add(bad[0], big.NewInt(1))
	ok, err = p.BatchVerify([][]*big.Int{bad}, cs)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("single tampered upload accepted")
	}
}

func TestBatchVerifyErrors(t *testing.T) {
	p, vecs, cs := batchFixtures(t, group.Secp256k1(), 2, 4, 35)
	if _, err := p.BatchVerify(nil, nil); err == nil {
		t.Fatal("expected error on empty batch")
	}
	if _, err := p.BatchVerify(vecs, cs[:1]); err == nil {
		t.Fatal("expected error on length mismatch")
	}
	if _, err := p.BatchVerify([][]*big.Int{vecs[0], nil}, cs); err == nil {
		t.Fatal("expected error on empty vector")
	}
	if _, err := p.BatchVerify(vecs, []Commitment{cs[0], Commitment([]byte{1})}); err == nil {
		t.Fatal("expected error on malformed commitment")
	}
}

// TestBatchVerifyConcurrent runs batch verifications from many goroutines
// sharing one Params, under the race detector in CI.
func TestBatchVerifyConcurrent(t *testing.T) {
	p, vecs, cs := batchFixtures(t, group.Secp256k1(), 4, 10, 36)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := p.BatchVerify(vecs, cs)
			if err != nil {
				errs <- err
				return
			}
			if !ok {
				errs <- errBatchRejected
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errBatchRejected = errors.New("honest batch rejected concurrently")

// TestBatchVerifyPathsAgree checks the combined check and the per-upload
// loop against each other at every batch size around batchMinUploads, on
// honest batches and on batches with one tampered vector or one swapped
// commitment at each position. BatchVerify picks between the two by size
// alone, so any disagreement would make its verdict depend on m.
func TestBatchVerifyPathsAgree(t *testing.T) {
	const n = 12
	for m := 2; m <= batchMinUploads+1; m++ {
		p, vecs, cs := batchFixtures(t, group.Secp256k1(), m, n, int64(40+m))
		verdicts := func(vecs [][]*big.Int, cs []Commitment) (batch, loop bool) {
			t.Helper()
			points := make([]group.Point, len(cs))
			for j, c := range cs {
				var err error
				if points[j], err = p.curve.Decode(c); err != nil {
					t.Fatal(err)
				}
			}
			batch, err := p.batchVerify(vecs, points, n)
			if err != nil {
				t.Fatal(err)
			}
			loop = true
			for j := range vecs {
				ok, err := p.Verify(vecs[j], cs[j])
				if err != nil {
					t.Fatal(err)
				}
				loop = loop && ok
			}
			got, err := p.BatchVerify(vecs, cs)
			if err != nil {
				t.Fatal(err)
			}
			if got != loop {
				t.Fatalf("m=%d: BatchVerify says %v, per-upload loop %v", m, got, loop)
			}
			return batch, loop
		}
		if batch, loop := verdicts(vecs, cs); !batch || !loop {
			t.Fatalf("m=%d: honest batch rejected (batch %v, loop %v)", m, batch, loop)
		}
		for j := 0; j < m; j++ {
			bad := append([]*big.Int(nil), vecs[j]...)
			bad[0] = p.Field().Add(bad[0], big.NewInt(1))
			tampered := append([][]*big.Int(nil), vecs...)
			tampered[j] = bad
			if batch, loop := verdicts(tampered, cs); batch || loop {
				t.Fatalf("m=%d: tampered vector %d accepted (batch %v, loop %v)", m, j, batch, loop)
			}
			swapped := append([]Commitment(nil), cs...)
			swapped[j] = cs[(j+1)%m]
			if batch, loop := verdicts(vecs, swapped); batch || loop {
				t.Fatalf("m=%d: swapped commitment %d accepted (batch %v, loop %v)", m, j, batch, loop)
			}
		}
	}
}

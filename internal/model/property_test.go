package model

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"ipls/internal/group"
	"ipls/internal/scalar"
)

// TestSumCommutativeAssociative: block aggregation order must never matter
// — aggregators, providers and takeover peers fold blocks in different
// orders and must produce identical aggregates.
func TestSumCommutativeAssociative(t *testing.T) {
	q := testQuantizer(t)
	f := testField()
	rng := rand.New(rand.NewSource(7))
	mkBlock := func(dim int) Block {
		part := make([]float64, dim)
		for i := range part {
			part[i] = rng.NormFloat64()
		}
		b, err := Quantize(q, part)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for trial := 0; trial < 30; trial++ {
		dim := 1 + rng.Intn(20)
		a, b, c := mkBlock(dim), mkBlock(dim), mkBlock(dim)

		ab, _ := Sum(f, a, b)
		ba, _ := Sum(f, b, a)
		for i := range ab.Values {
			if ab.Values[i].Cmp(ba.Values[i]) != 0 {
				t.Fatal("sum not commutative")
			}
		}
		abc1, _ := Sum(f, ab, c)
		bc, _ := Sum(f, b, c)
		abc2, _ := Sum(f, a, bc)
		abc3, _ := Sum(f, a, b, c)
		for i := range abc1.Values {
			if abc1.Values[i].Cmp(abc2.Values[i]) != 0 || abc1.Values[i].Cmp(abc3.Values[i]) != 0 {
				t.Fatal("sum not associative")
			}
		}
	}
}

// TestBlockEncodeIsCanonical: identical blocks encode to identical bytes
// (content addressing depends on it), and any single-element change
// produces different bytes.
func TestBlockEncodeIsCanonical(t *testing.T) {
	q := testQuantizer(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(16)
		part := make([]float64, dim)
		for i := range part {
			part[i] = rng.NormFloat64()
		}
		b1, err := Quantize(q, part)
		if err != nil {
			return false
		}
		b2, err := Quantize(q, part)
		if err != nil {
			return false
		}
		e1, err := b1.Encode()
		if err != nil {
			return false
		}
		e2, err := b2.Encode()
		if err != nil {
			return false
		}
		if string(e1) != string(e2) {
			return false
		}
		// Mutate one element: encoding must change.
		b2.Values[rng.Intn(len(b2.Values))] = testField().Add(b2.Values[0], b2.Values[len(b2.Values)-1])
		e3, err := b2.Encode()
		if err != nil {
			return false
		}
		return string(e1) != string(e3)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitQuantizeSumJoinPipeline runs the whole trainer→aggregator→
// trainer data path for random shapes and checks the end-to-end average.
func TestSplitQuantizeSumJoinPipeline(t *testing.T) {
	q := testQuantizer(t)
	f := testField()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		dim := 2 + rng.Intn(40)
		partitions := 1 + rng.Intn(dim)
		trainers := 1 + rng.Intn(8)
		spec := Spec{Dim: dim, Partitions: partitions}

		trueAvg := make([]float64, dim)
		// Per-partition aggregated blocks.
		aggregates := make([]Block, partitions)
		for tr := 0; tr < trainers; tr++ {
			vec := make([]float64, dim)
			for i := range vec {
				vec[i] = rng.NormFloat64()
				trueAvg[i] += vec[i] / float64(trainers)
			}
			parts, err := Split(spec, vec)
			if err != nil {
				t.Fatal(err)
			}
			for p, part := range parts {
				block, err := Quantize(q, part)
				if err != nil {
					t.Fatal(err)
				}
				if aggregates[p].Values == nil {
					aggregates[p] = block
				} else {
					aggregates[p], err = Sum(f, aggregates[p], block)
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		outParts := make([][]float64, partitions)
		for p, block := range aggregates {
			avg, err := Dequantize(q, block)
			if err != nil {
				t.Fatal(err)
			}
			outParts[p] = avg
		}
		got, err := Join(spec, outParts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			diff := got[i] - trueAvg[i]
			if diff < 0 {
				diff = -diff
			}
			if diff > 1e-6 {
				t.Fatalf("trial %d (dim=%d parts=%d trainers=%d): element %d off by %v",
					trial, dim, partitions, trainers, i, diff)
			}
		}
	}
}

// refDecode is Quantizer.Decode at DefaultShift as the parent commit wrote
// it — reduce, centre, convert through big.Float — kept here so the decode
// kernel, which Decode and DecodeVec now share, is checked against
// something it is not.
func refDecode(order, v *big.Int) float64 {
	r := new(big.Int).Mod(v, order)
	if r.Cmp(new(big.Int).Rsh(order, 1)) > 0 {
		r.Sub(r, order)
	}
	f, _ := new(big.Float).SetInt(r).Float64()
	return f / math.Ldexp(1, scalar.DefaultShift)
}

// checkVectorKernels holds the slab-backed vector kernels against a
// reference built one element at a time from the scalar Field.Add,
// Quantizer.Encode and refDecode: same elements, same floats bit for bit,
// same bytes, and the same refusals, naming the offending element, over
// the field of the given order at DefaultShift. The byte kernels are held
// against the Block path they replace: QuantizeEncode against Quantize and
// Encode, DecodeDequantize against DecodeBlock and Dequantize. a and b are
// equal-length vectors of wire elements (any value below 2^256).
func checkVectorKernels(t *testing.T, order *big.Int, xs []float64, a, b []*big.Int) {
	t.Helper()
	f := scalar.NewField(order)
	q, err := scalar.NewQuantizer(f, scalar.DefaultShift)
	if err != nil {
		t.Fatal(err)
	}

	enc, err := q.EncodeVec(xs)
	bad := -1
	ref := make([]*big.Int, len(xs))
	for i, x := range xs {
		if ref[i], _ = q.Encode(x); ref[i] == nil {
			bad = i
			break
		}
	}
	checkQuantizeEncode(t, q, xs)
	if bad >= 0 {
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("element %d:", bad)) {
			t.Fatalf("EncodeVec(%v): error %v, want one naming element %d", xs, err, bad)
		}
		if _, qerr := Quantize(q, xs); qerr == nil {
			t.Fatalf("Quantize accepted %v", xs[bad])
		}
	} else {
		if err != nil {
			t.Fatalf("EncodeVec(%v): %v", xs, err)
		}
		for i := range ref {
			if enc[i].Cmp(ref[i]) != 0 {
				t.Fatalf("EncodeVec element %d (%v): %x, Encode gives %x", i, xs[i], enc[i], ref[i])
			}
		}
		a, b = append(enc, a...), append(ref, b...)
	}

	wantSum := make([]*big.Int, len(a))
	for i := range a {
		wantSum[i] = f.Add(a[i], b[i])
		if wantSum[i].Sign() < 0 || wantSum[i].Cmp(order) >= 0 {
			t.Fatalf("Field.Add(%x, %x) = %x is not reduced", a[i], b[i], wantSum[i])
		}
	}
	sum, err := f.SumVecs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	blockSum, err := Sum(f, Block{Values: a}, Block{Values: b})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantSum {
		if sum[i].Cmp(wantSum[i]) != 0 || blockSum.Values[i].Cmp(wantSum[i]) != 0 {
			t.Fatalf("element %d: %x + %x: SumVecs %x, Sum %x, Field.Add %x",
				i, a[i], b[i], sum[i], blockSum.Values[i], wantSum[i])
		}
	}

	for _, vec := range [][]*big.Int{a, b, sum} {
		dec := q.DecodeVec(vec)
		for i, v := range vec {
			want := math.Float64bits(refDecode(order, v))
			if math.Float64bits(dec[i]) != want || math.Float64bits(q.Decode(v)) != want {
				t.Fatalf("element %d (%x): DecodeVec %v, Decode %v, reference %v", i, v, dec[i], q.Decode(v), refDecode(order, v))
			}
		}
	}

	// Bytes: decode∘encode is the identity on wire elements, and the one
	// merge kernel produces exactly the encoding of the reference sum.
	ea, err := Block{Values: a}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Block{Values: b}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	da, err := DecodeBlock(ea)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if da.Values[i].Cmp(a[i]) != 0 {
			t.Fatalf("element %d changed across Encode/DecodeBlock: %x -> %x", i, a[i], da.Values[i])
		}
	}
	merged, err := Merge(f, ea, eb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Block{Values: wantSum}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, want) {
		t.Fatal("Merge bytes differ from the encoding of the reference sum")
	}

	// DecodeBytes reads each wire element as refDecode does, and
	// DecodeDequantize is Dequantize∘DecodeBlock under every counter: each
	// vector's own last element, honest counts, and refused ones.
	counters := []*big.Int{big.NewInt(0)}
	for _, x := range []float64{1, 3, 8, -1, 0.5, 0} {
		c, err := q.Encode(x)
		if err != nil {
			t.Fatal(err)
		}
		counters = append(counters, c)
	}
	for _, vec := range [][]*big.Int{a, b, sum} {
		data, err := Block{Values: vec}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, len(vec))
		q.DecodeBytes(got, data[4:])
		for i, v := range vec {
			if want := refDecode(order, v); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("element %d (%x): DecodeBytes %v, reference %v", i, v, got[i], want)
			}
		}
		checkDecodeDequantize(t, q, data)
		for _, c := range counters {
			data, err := Block{Values: append(slices.Clone(vec), c)}.Encode()
			if err != nil {
				t.Fatal(err)
			}
			checkDecodeDequantize(t, q, data)
		}
	}
}

// checkQuantizeEncode: QuantizeEncode gives the bytes of Quantize and
// Encode, or the same error.
func checkQuantizeEncode(t *testing.T, q *scalar.Quantizer, xs []float64) {
	t.Helper()
	got, err := QuantizeEncode(q, xs)
	var want []byte
	b, werr := Quantize(q, xs)
	if werr == nil {
		want, werr = b.Encode()
	}
	switch {
	case (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error():
		t.Fatalf("QuantizeEncode(%v): error %v, Quantize+Encode: %v", xs, err, werr)
	case !bytes.Equal(got, want):
		t.Fatalf("QuantizeEncode(%v) bytes differ from Quantize+Encode", xs)
	}
}

// checkDecodeDequantize: DecodeDequantize gives the floats of DecodeBlock
// and Dequantize bit for bit, or the same error.
func checkDecodeDequantize(t *testing.T, q *scalar.Quantizer, data []byte) {
	t.Helper()
	got, err := DecodeDequantize(q, data)
	var want []float64
	b, werr := DecodeBlock(data)
	if werr == nil {
		want, werr = Dequantize(q, b)
	}
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("DecodeDequantize: error %v, DecodeBlock+Dequantize: %v", err, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("DecodeDequantize: %d floats, DecodeBlock+Dequantize %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("element %d: DecodeDequantize %v, DecodeBlock+Dequantize %v", i, got[i], want[i])
		}
	}
}

// TestVectorKernelsMatchScalarReference drives checkVectorKernels with the
// edges of both domains and with random fill, over both curve orders.
func TestVectorKernelsMatchScalarReference(t *testing.T) {
	pow := func(n uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), n) }
	for _, curve := range []*group.Curve{group.Secp256k1(), group.Secp256r1()} {
		ulp := math.Ldexp(1, -scalar.DefaultShift)
		// The largest magnitudes the fixed-point range takes, and the
		// first ones it refuses.
		edge := math.Ldexp(1, 62-scalar.DefaultShift)
		floats := []float64{0, math.Copysign(0, -1), ulp, -ulp, ulp / 2, -ulp / 2, 1.5 * ulp, -1.5 * ulp,
			1, -1, 1 - ulp, -1 + ulp, math.Nextafter(edge, 0), -math.Nextafter(edge, 0), math.SmallestNonzeroFloat64}
		order := curve.N
		sub := func(x, y *big.Int) *big.Int { return new(big.Int).Sub(x, y) }
		half := new(big.Int).Rsh(order, 1)
		elems := []*big.Int{
			big.NewInt(0), big.NewInt(1), sub(order, big.NewInt(1)), order, new(big.Int).Add(order, big.NewInt(1)),
			half, new(big.Int).Add(half, big.NewInt(1)), sub(pow(256), big.NewInt(1)),
			pow(62), sub(order, pow(62)), pow(63), sub(order, pow(63)), sub(pow(63), big.NewInt(1)),
			sub(sub(order, pow(63)), big.NewInt(1)), pow(70), sub(order, pow(70)), pow(200),
		}
		// Every edge element meets every other one.
		var a, b []*big.Int
		for _, x := range elems {
			for _, y := range elems {
				a, b = append(a, x), append(b, y)
			}
		}
		checkVectorKernels(t, order, floats, a, b)

		for i, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), edge, -edge, math.MaxFloat64} {
			xs := append([]float64{1, -2, 3}, floats[:i]...)
			checkVectorKernels(t, order, append(xs, x, 4), nil, nil)
		}

		rng := rand.New(rand.NewSource(12))
		for trial := 0; trial < 50; trial++ {
			n := rng.Intn(40)
			xs := make([]float64, rng.Intn(40))
			for i := range xs {
				xs[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(60)-20)
			}
			a, b := make([]*big.Int, n), make([]*big.Int, n)
			for i := range a {
				buf := make([]byte, 2*scalar.ElementSize)
				rng.Read(buf)
				a[i] = new(big.Int).SetBytes(buf[:scalar.ElementSize])
				b[i] = new(big.Int).SetBytes(buf[scalar.ElementSize:])
			}
			checkVectorKernels(t, order, xs, a, b)
		}
	}
}

// TestBlocksAreSharedReadOnly: a round hands one decoded block to several
// role goroutines (aggregators sum it, verifiers commit to it, trainers
// dequantize it). Every kernel only reads its inputs, so concurrent use of
// one slab gives each reader the sequential result — and `make race` runs
// this under the race detector.
func TestBlocksAreSharedReadOnly(t *testing.T) {
	q := testQuantizer(t)
	f := testField()
	rng := rand.New(rand.NewSource(13))
	mk := func() Block {
		part := make([]float64, 300)
		for i := range part {
			part[i] = rng.NormFloat64()
		}
		b, err := Quantize(q, part)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := mk(), mk()
	use := func() ([]byte, []byte, []float64, error) {
		sum, err := Sum(f, a, b)
		if err != nil {
			return nil, nil, nil, err
		}
		es, err := sum.Encode()
		if err != nil {
			return nil, nil, nil, err
		}
		ea, err := a.Encode()
		if err != nil {
			return nil, nil, nil, err
		}
		avg, err := Dequantize(q, sum)
		return es, ea, avg, err
	}
	wantSum, wantA, wantAvg, err := use()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				es, ea, avg, err := use()
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(es, wantSum) || !bytes.Equal(ea, wantA) {
					t.Error("a concurrent reader saw different bytes")
					return
				}
				for i := range avg {
					if avg[i] != wantAvg[i] {
						t.Errorf("a concurrent reader dequantized element %d to %v, want %v", i, avg[i], wantAvg[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

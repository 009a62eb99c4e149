package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ipls/internal/group"
	"ipls/internal/scalar"
)

// testField is the field testQuantizer encodes into.
func testField() *scalar.Field { return scalar.NewField(group.Secp256k1().N) }

func testQuantizer(t *testing.T) *scalar.Quantizer {
	t.Helper()
	q, err := scalar.NewQuantizer(testField(), scalar.DefaultShift)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{Dim: 10, Partitions: 4}, true},
		{Spec{Dim: 10, Partitions: 10}, true},
		{Spec{Dim: 10, Partitions: 1}, true},
		{Spec{Dim: 0, Partitions: 1}, false},
		{Spec{Dim: 10, Partitions: 0}, false},
		{Spec{Dim: 10, Partitions: 11}, false},
		{Spec{Dim: -5, Partitions: 1}, false},
	}
	for _, tt := range tests {
		err := tt.spec.Validate()
		if (err == nil) != tt.ok {
			t.Errorf("Validate(%+v) error = %v, want ok=%v", tt.spec, err, tt.ok)
		}
	}
}

func TestRangeCoversVectorExactly(t *testing.T) {
	check := func(dim8, parts8 uint8) bool {
		dim := int(dim8)%500 + 1
		parts := int(parts8)%dim + 1
		s := Spec{Dim: dim, Partitions: parts}
		covered := 0
		prevHi := 0
		for i := 0; i < parts; i++ {
			lo, hi := s.Range(i)
			if lo != prevHi || hi < lo {
				return false
			}
			if hi-lo < dim/parts || hi-lo > dim/parts+1 {
				return false // partitions must be near-equal
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == dim && prevHi == dim
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []Spec{
		{Dim: 16, Partitions: 4},
		{Dim: 17, Partitions: 4},
		{Dim: 5, Partitions: 5},
		{Dim: 100, Partitions: 7},
	} {
		vec := make([]float64, tc.Dim)
		for i := range vec {
			vec[i] = rng.NormFloat64()
		}
		parts, err := Split(tc, vec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Join(tc, parts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vec {
			if got[i] != vec[i] {
				t.Fatalf("spec %+v: element %d mismatch", tc, i)
			}
		}
	}
}

func TestSplitJoinErrors(t *testing.T) {
	s := Spec{Dim: 10, Partitions: 2}
	if _, err := Split(s, make([]float64, 9)); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := Split(Spec{Dim: 0, Partitions: 1}, nil); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := Join(s, make([][]float64, 3)); err == nil {
		t.Fatal("expected partition count error")
	}
	if _, err := Join(s, [][]float64{make([]float64, 5), make([]float64, 4)}); err == nil {
		t.Fatal("expected partition length error")
	}
}

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	q := testQuantizer(t)
	rng := rand.New(rand.NewSource(2))
	part := make([]float64, 33)
	for i := range part {
		part[i] = rng.NormFloat64()
	}
	b, err := Quantize(q, part)
	if err != nil {
		t.Fatal(err)
	}
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != BlockSize(len(part)) {
		t.Fatalf("encoded size %d != BlockSize %d", len(data), BlockSize(len(part)))
	}
	got, err := DecodeBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != len(b.Values) {
		t.Fatal("value count mismatch")
	}
	for i := range got.Values {
		if got.Values[i].Cmp(b.Values[i]) != 0 {
			t.Fatalf("element %d mismatch", i)
		}
	}
}

func TestDecodeBlockErrors(t *testing.T) {
	if _, err := DecodeBlock([]byte{1, 2}); err == nil {
		t.Fatal("expected short-block error")
	}
	if _, err := DecodeBlock([]byte{0, 0, 0, 2, 1, 2, 3}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	// One element announced, 31 bytes of it present.
	if _, err := DecodeBlock(append([]byte{0, 0, 0, 1}, make([]byte, scalar.ElementSize-1)...)); err == nil {
		t.Fatal("expected error for a short element")
	}
}

// TestEncodeRejectsUnencodableElements: an element has exactly 32 bytes on
// the wire, so a negative value or one past 256 bits is refused, and the
// error names the element.
func TestEncodeRejectsUnencodableElements(t *testing.T) {
	ok := big.NewInt(7)
	for name, bad := range map[string]*big.Int{
		"negative":  big.NewInt(-1),
		"too large": new(big.Int).Lsh(big.NewInt(1), 256),
	} {
		_, err := Block{Values: []*big.Int{ok, ok, bad}}.Encode()
		if err == nil || !strings.Contains(err.Error(), "element 2") {
			t.Fatalf("%s element: got error %v, want one naming element 2", name, err)
		}
	}
	// 2^256-1 is the largest value that fits, and it round-trips.
	max := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	data, err := Block{Values: []*big.Int{max}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBlock(data)
	if err != nil || got.Values[0].Cmp(max) != 0 {
		t.Fatalf("2^256-1 did not round-trip: %v, %v", got.Values, err)
	}
}

// Wire goldens, recorded on the commit before blocks became slab-backed
// (7fe8238): the SHA-256 of Quantize(seeded vector).Encode(), which
// QuantizeEncode must also produce, and of the fan-in-2 merge of two such
// blocks, per curve order. A CID is the SHA-256
// of these bytes, so equal digests mean no CID moved.
var wireGoldens = []struct {
	curve        *group.Curve
	block, merge string
}{
	{group.Secp256k1(),
		"9714aecc6e26b5a1553611f8cd8dda867a5d61443e200e2005dc1a39fb03523c",
		"2214289c0405c804cce1360038916471621da5dd07bbacf252de326730b6c52a"},
	{group.Secp256r1(),
		"51a51c21ef98c5db4fdda691032ced9c63c1b5b3a2c546b05e645fa0d77d483f",
		"027cc6c68dd82e409e8fc45542d7bb8762e700155daf83a8fb11a4bd3d17972c"},
}

func TestWireGolden(t *testing.T) {
	seeded := func(q *scalar.Quantizer, seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		part := make([]float64, 1024)
		for i := range part {
			part[i] = rng.NormFloat64()
		}
		b, err := Quantize(q, part)
		if err != nil {
			t.Fatal(err)
		}
		data, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		direct, err := QuantizeEncode(q, part)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct, data) {
			t.Errorf("seed %d: QuantizeEncode bytes differ from Quantize+Encode", seed)
		}
		return direct
	}
	digest := func(data []byte) string {
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:])
	}
	for _, g := range wireGoldens {
		f := scalar.NewField(g.curve.N)
		q, err := scalar.NewQuantizer(f, scalar.DefaultShift)
		if err != nil {
			t.Fatal(err)
		}
		a, b := seeded(q, 41), seeded(q, 42)
		if got := digest(a); got != g.block {
			t.Errorf("%s: block digest %s, recorded %s", g.curve.Name, got, g.block)
		}
		merged, err := Merge(f, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(merged); got != g.merge {
			t.Errorf("%s: merge digest %s, recorded %s", g.curve.Name, got, g.merge)
		}
	}
}

func TestQuantizeAppendsCounter(t *testing.T) {
	q := testQuantizer(t)
	b, err := Quantize(q, []float64{0.5, -0.25})
	if err != nil {
		t.Fatal(err)
	}
	if b.Dim() != 2 {
		t.Fatalf("Dim() = %d", b.Dim())
	}
	if got := q.Decode(b.Values[len(b.Values)-1]); got != 1 {
		t.Fatalf("counter decodes to %v, want 1", got)
	}
}

func TestSumAndDequantizeAverages(t *testing.T) {
	// The core Algorithm 1 data path: N trainers quantize, blocks are
	// field-summed, the trainer divides by the summed counter.
	q := testQuantizer(t)
	f := testField()
	rng := rand.New(rand.NewSource(3))
	const n = 16
	const dim = 20
	trueAvg := make([]float64, dim)
	blocks := make([]Block, n)
	for tr := 0; tr < n; tr++ {
		part := make([]float64, dim)
		for i := range part {
			part[i] = rng.NormFloat64()
			trueAvg[i] += part[i] / n
		}
		b, err := Quantize(q, part)
		if err != nil {
			t.Fatal(err)
		}
		blocks[tr] = b
	}
	sum, err := Sum(f, blocks...)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Decode(sum.Values[len(sum.Values)-1]); got != n {
		t.Fatalf("summed counter = %v, want %d", got, n)
	}
	avg, err := Dequantize(q, sum)
	if err != nil {
		t.Fatal(err)
	}
	eps := 1.0 / math.Ldexp(1, scalar.DefaultShift-2)
	for i := range avg {
		if math.Abs(avg[i]-trueAvg[i]) > eps {
			t.Fatalf("element %d: avg %v, want %v", i, avg[i], trueAvg[i])
		}
	}
}

func TestSumErrors(t *testing.T) {
	f := scalar.NewField(group.Secp256k1().N)
	if _, err := Sum(f); err == nil {
		t.Fatal("expected error summing nothing")
	}
	q := testQuantizer(t)
	b1, _ := Quantize(q, []float64{1})
	b2, _ := Quantize(q, []float64{1, 2})
	if _, err := Sum(f, b1, b2); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestDequantizeErrors(t *testing.T) {
	q := testQuantizer(t)
	if _, err := Dequantize(q, Block{}); err == nil {
		t.Fatal("expected error on empty block")
	}
	// A zero counter must be rejected.
	zero, _ := Quantize(q, []float64{1.0})
	zero.Values[len(zero.Values)-1].SetInt64(0)
	if _, err := Dequantize(q, zero); err == nil {
		t.Fatal("expected error on zero counter")
	}
}

func TestEncodeFloatsRoundTrip(t *testing.T) {
	check := func(raw []uint64) bool {
		vec := make([]float64, len(raw))
		for i, u := range raw {
			vec[i] = math.Float64frombits(u)
		}
		got, err := DecodeFloats(EncodeFloats(vec))
		if err != nil || len(got) != len(vec) {
			return false
		}
		for i := range vec {
			if math.Float64bits(got[i]) != math.Float64bits(vec[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFloats([]byte{1}); err == nil {
		t.Fatal("expected short-input error")
	}
	if _, err := DecodeFloats([]byte{0, 0, 0, 2, 9}); err == nil {
		t.Fatal("expected length error")
	}
}

// Package scalar provides arithmetic in the prime-order scalar field of an
// elliptic-curve group, together with a deterministic fixed-point encoding of
// floating-point gradient values into field elements.
//
// The encoding is designed so that field addition of encoded values equals
// (the encoding of) real-number addition, which is what makes Pedersen
// commitments over gradients homomorphic end-to-end: the commitment to the
// sum of the trainers' quantized gradients equals the product of their
// individual commitments.
package scalar

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// ElementSize is the canonical serialized size of a field element in bytes.
// Both secp256k1 and secp256r1 have 256-bit orders, so 32 bytes suffice.
const ElementSize = 32

// Field performs arithmetic modulo a prime order.
type Field struct {
	order *big.Int
	half  *big.Int // order/2, used to decode signed values
	limbs [4]uint64
	wide  bool // the order does not fit in ElementSize bytes
}

// NewField returns a field with the given prime order. The order is copied.
func NewField(order *big.Int) *Field {
	n := new(big.Int).Set(order)
	f := &Field{
		order: n,
		half:  new(big.Int).Rsh(n, 1),
		wide:  n.Sign() < 0 || n.BitLen() > ElementSize*8,
	}
	if !f.wide {
		var buf [ElementSize]byte
		n.FillBytes(buf[:])
		for i := range f.limbs {
			f.limbs[i] = binary.BigEndian.Uint64(buf[ElementSize-8*(i+1):])
		}
	}
	return f
}

// OrderLimbs returns the order as four 64-bit limbs, least significant
// first, for kernels that work on encoded elements. ok is false when the
// order does not fit in ElementSize bytes.
func (f *Field) OrderLimbs() (limbs [4]uint64, ok bool) { return f.limbs, !f.wide }

// Reduce returns x mod order as a fresh value in [0, order).
func (f *Field) Reduce(x *big.Int) *big.Int {
	r := new(big.Int).Mod(x, f.order)
	return r
}

// Add returns (a + b) mod order, in [0, order) whatever the operands.
func (f *Field) Add(a, b *big.Int) *big.Int {
	r := new(big.Int).Add(a, b)
	if r.Cmp(f.order) >= 0 {
		r.Sub(r, f.order)
	}
	if !f.reduced(r) {
		r.Mod(r, f.order)
	}
	return r
}

// reduced reports whether x is in [0, order).
func (f *Field) reduced(x *big.Int) bool {
	return x.Sign() >= 0 && x.Cmp(f.order) < 0
}

// Mul returns (a * b) mod order.
func (f *Field) Mul(a, b *big.Int) *big.Int {
	r := new(big.Int).Mul(a, b)
	return r.Mod(r, f.order)
}

// vecWords is the window a slab-backed element owns: the words of an
// ElementSize value plus one for the carry of an in-place Add.
const vecWords = ElementSize*8/bits.UintSize + 1

// NewVec returns n zero elements backed by three slabs: the pointers, the
// big.Int headers and their words. Each window is capped at vecWords, so a
// value that outgrows it detaches instead of reaching its neighbour's.
func NewVec(n int) []*big.Int {
	ptrs := make([]*big.Int, n)
	ints := make([]big.Int, n)
	words := make([]big.Word, n*vecWords)
	for i := range ints {
		ints[i].SetBits(words[i*vecWords : i*vecWords : (i+1)*vecWords])
		ptrs[i] = &ints[i]
	}
	return ptrs
}

// SumVecs returns the element-wise field sum of all vectors. All vectors must
// have the same length and there must be at least one. The result is a fresh
// slab-backed vector in [0, order); inputs are read, never written.
func (f *Field) SumVecs(vecs ...[]*big.Int) ([]*big.Int, error) {
	if len(vecs) == 0 {
		return nil, errors.New("scalar: no vectors to sum")
	}
	n := len(vecs[0])
	for _, v := range vecs {
		if len(v) != n {
			return nil, fmt.Errorf("scalar: vector length mismatch %d != %d", len(v), n)
		}
	}
	acc := NewVec(n)
	var scratch big.Int
	for i, z := range acc {
		for _, v := range vecs {
			x := v[i]
			if !f.reduced(x) {
				x = scratch.Mod(x, f.order)
			}
			if z.Add(z, x).Cmp(f.order) >= 0 {
				z.Sub(z, f.order)
			}
		}
	}
	return acc, nil
}

// Quantizer maps float64 values to field elements using two's-complement
// style fixed-point encoding with Shift fractional bits: x is encoded as
// round(x * 2^Shift) mod order, with negative values wrapping to the top of
// the field. Decoding treats elements above order/2 as negative.
//
// Additions of encoded values decode correctly as long as the magnitude of
// the true sum stays below 2^(256-Shift-1), which is astronomically larger
// than any gradient sum that occurs in practice.
type Quantizer struct {
	field *Field
	shift uint
	scale float64
}

// DefaultShift is the default number of fractional bits. 24 bits keeps
// per-element quantization error below 6e-8 while leaving over 200 bits of
// headroom for summation.
const DefaultShift = 24

// NewQuantizer creates a quantizer over the field with the given number of
// fractional bits. Shift must be in [1, 64).
func NewQuantizer(f *Field, shift uint) (*Quantizer, error) {
	if shift == 0 || shift >= 64 {
		return nil, fmt.Errorf("scalar: invalid shift %d", shift)
	}
	return &Quantizer{
		field: f,
		shift: shift,
		scale: math.Ldexp(1, int(shift)),
	}, nil
}

// fixed returns round(x * 2^Shift); NaN and infinities are rejected.
func (q *Quantizer) fixed(x float64) (int64, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, fmt.Errorf("scalar: cannot encode %v", x)
	}
	scaled := math.Round(x * q.scale)
	// Values this large cannot round-trip through int64; gradients never
	// get near this, so treat it as caller error.
	if math.Abs(scaled) >= math.Ldexp(1, 62) {
		return 0, fmt.Errorf("scalar: value %v out of fixed-point range", x)
	}
	return int64(scaled), nil
}

// Encode maps a float64 to a field element. NaN and infinities are rejected.
func (q *Quantizer) Encode(x float64) (*big.Int, error) {
	n, err := q.fixed(x)
	if err != nil {
		return nil, err
	}
	v := big.NewInt(n)
	if v.Sign() < 0 {
		v.Add(v, q.field.order)
	}
	return v, nil
}

// decode maps a field element back to float64, interpreting elements above
// order/2 as negative; it centres v around zero through scratch. Sums of
// gradients are small fixed-point values and convert through int64;
// anything larger goes through big.Float. Both round to nearest even.
func (q *Quantizer) decode(v, scratch *big.Int) float64 {
	if !q.field.reduced(v) {
		v = scratch.Mod(v, q.field.order)
	}
	if v.Cmp(q.field.half) > 0 {
		v = scratch.Sub(v, q.field.order)
	}
	if v.IsInt64() {
		return float64(v.Int64()) / q.scale
	}
	f, _ := new(big.Float).SetInt(v).Float64()
	return f / q.scale
}

// EncodeVec encodes every element of xs into a fresh slab-backed vector.
func (q *Quantizer) EncodeVec(xs []float64) ([]*big.Int, error) {
	out := NewVec(len(xs))
	if err := q.EncodeInto(out, xs); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeInto sets dst[i] to the encoding of xs[i] in place; dst must hold
// len(xs) non-nil elements. On error dst is left partly written.
func (q *Quantizer) EncodeInto(dst []*big.Int, xs []float64) error {
	if len(dst) != len(xs) {
		return fmt.Errorf("scalar: vector length mismatch %d != %d", len(dst), len(xs))
	}
	for i, x := range xs {
		n, err := q.fixed(x)
		if err != nil {
			return fmt.Errorf("scalar: element %d: %w", i, err)
		}
		if dst[i].SetInt64(n); n < 0 {
			dst[i].Add(dst[i], q.field.order)
		}
	}
	return nil
}

// EncodeBytes writes the encoding of each xs[i] to dst as a big-endian
// ElementSize-byte element: EncodeInto in its wire form, without a big.Int.
// A non-negative round(x·2^Shift) is written as it is and a negative one as
// order − |n|, subtracted in limbs. dst must hold len(xs) elements. The
// fixed-point refusals are EncodeInto's; on error dst is left partly
// written.
func (q *Quantizer) EncodeBytes(dst []byte, xs []float64) error {
	if len(dst) != len(xs)*ElementSize {
		return fmt.Errorf("scalar: %d bytes cannot hold %d elements", len(dst), len(xs))
	}
	m := &q.field.limbs
	for i, x := range xs {
		n, err := q.fixed(x)
		if err != nil {
			return fmt.Errorf("scalar: element %d: %w", i, err)
		}
		w0, w1, w2, w3 := uint64(n), uint64(0), uint64(0), uint64(0)
		if n < 0 {
			var b uint64
			w0, b = bits.Sub64(m[0], uint64(-n), 0)
			w1, b = bits.Sub64(m[1], 0, b)
			w2, b = bits.Sub64(m[2], 0, b)
			w3, b = bits.Sub64(m[3], 0, b)
			if b != 0 || q.field.wide {
				return fmt.Errorf("scalar: element %d: %d has no %d-byte encoding", i, n, ElementSize)
			}
		}
		el := dst[i*ElementSize : (i+1)*ElementSize]
		binary.BigEndian.PutUint64(el, w3)
		binary.BigEndian.PutUint64(el[8:], w2)
		binary.BigEndian.PutUint64(el[16:], w1)
		binary.BigEndian.PutUint64(el[24:], w0)
	}
	return nil
}

// DecodeBytes sets each dst[i] to Decode of the i-th big-endian
// ElementSize-byte element of src, which must hold at least len(dst). An
// element within 2⁶³ of zero or of the order, as every honest sum is, is
// read in limbs and converted through int64; any other takes Decode's own
// path, so the floats are Decode's bit for bit.
func (q *Quantizer) DecodeBytes(dst []float64, src []byte) {
	if len(src) < len(dst)*ElementSize {
		panic(fmt.Sprintf("scalar: %d bytes hold fewer than %d elements", len(src), len(dst)))
	}
	m := &q.field.limbs
	// An element within 2⁶³ of zero or of the order lies on that side of
	// order/2 for any order of at least 2¹²⁸.
	limbed := !q.field.wide && m[3]|m[2] != 0
	for i := range dst {
		el := src[i*ElementSize : (i+1)*ElementSize]
		w3 := binary.BigEndian.Uint64(el)
		w2 := binary.BigEndian.Uint64(el[8:])
		w1 := binary.BigEndian.Uint64(el[16:])
		w0 := binary.BigEndian.Uint64(el[24:])
		if limbed {
			if w3|w2|w1 == 0 && w0 < 1<<63 {
				dst[i] = float64(int64(w0)) / q.scale
				continue
			}
			// order − x ≤ 2⁶³ without a borrow: x is the negative −(order − x).
			d0, b := bits.Sub64(m[0], w0, 0)
			d1, b := bits.Sub64(m[1], w1, b)
			d2, b := bits.Sub64(m[2], w2, b)
			d3, b := bits.Sub64(m[3], w3, b)
			if b == 0 && d3|d2|d1 == 0 && d0 <= 1<<63 {
				dst[i] = float64(int64(-d0)) / q.scale
				continue
			}
		}
		dst[i] = q.decode(new(big.Int).SetBytes(el), new(big.Int))
	}
}

// DecodeVec decodes every element of vs through one scratch value.
func (q *Quantizer) DecodeVec(vs []*big.Int) []float64 {
	out := make([]float64, len(vs))
	var scratch big.Int
	for i, v := range vs {
		out[i] = q.decode(v, &scratch)
	}
	return out
}

// Package model handles the machine-learning parameter vector as the IPLS
// protocol sees it: a flat float64 vector that is segmented into partitions
// (§II), quantized into scalar-field elements, and serialized into
// content-addressed blocks for the storage network.
//
// Every gradient block carries an extra trailing element, the averaging
// counter: trainers append the value 1 to each partition (Algorithm 1 line
// 14), aggregation sums the counters along with the gradients, and trainers
// divide the downloaded update by the summed counter to recover the average
// (lines 20-21).
package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"ipls/internal/scalar"
)

// Spec describes the layout of a model's parameter vector.
type Spec struct {
	// Dim is the total number of parameters.
	Dim int
	// Partitions is the number of contiguous segments the vector is split
	// into; each partition is aggregated independently (§II).
	Partitions int
}

// Validate checks that the spec is usable.
func (s Spec) Validate() error {
	if s.Dim <= 0 {
		return fmt.Errorf("model: dimension must be positive, got %d", s.Dim)
	}
	if s.Partitions <= 0 || s.Partitions > s.Dim {
		return fmt.Errorf("model: partitions must be in [1, %d], got %d", s.Dim, s.Partitions)
	}
	return nil
}

// Range returns the half-open parameter index range [lo, hi) covered by
// partition i. Partitions differ in size by at most one element.
func (s Spec) Range(i int) (lo, hi int) {
	base := s.Dim / s.Partitions
	rem := s.Dim % s.Partitions
	if i < rem {
		lo = i * (base + 1)
		hi = lo + base + 1
		return lo, hi
	}
	lo = rem*(base+1) + (i-rem)*base
	return lo, lo + base
}

// PartitionLen returns the number of parameters in partition i.
func (s Spec) PartitionLen(i int) int {
	lo, hi := s.Range(i)
	return hi - lo
}

// Split segments a parameter vector into its partitions. The returned slices
// alias vec.
func Split(s Spec, vec []float64) ([][]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(vec) != s.Dim {
		return nil, fmt.Errorf("model: vector length %d != dim %d", len(vec), s.Dim)
	}
	parts := make([][]float64, s.Partitions)
	for i := 0; i < s.Partitions; i++ {
		lo, hi := s.Range(i)
		parts[i] = vec[lo:hi]
	}
	return parts, nil
}

// Join reassembles partitions into a full parameter vector.
func Join(s Spec, parts [][]float64) ([]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(parts) != s.Partitions {
		return nil, fmt.Errorf("model: got %d partitions, want %d", len(parts), s.Partitions)
	}
	vec := make([]float64, s.Dim)
	for i, p := range parts {
		lo, hi := s.Range(i)
		if len(p) != hi-lo {
			return nil, fmt.Errorf("model: partition %d has length %d, want %d", i, len(p), hi-lo)
		}
		copy(vec[lo:hi], p)
	}
	return vec, nil
}

// Block is a quantized partition as it travels through the storage network:
// gradient values followed by the averaging counter as the final element.
type Block struct {
	Values []*big.Int
}

// Dim returns the number of gradient values (excluding the counter).
func (b Block) Dim() int {
	if len(b.Values) == 0 {
		return 0
	}
	return len(b.Values) - 1
}

// BlockSize returns the serialized size in bytes of a block holding dim
// gradient values plus the counter.
func BlockSize(dim int) int {
	return 4 + scalar.ElementSize*(dim+1)
}

// Encode serializes the block deterministically: a big-endian element count
// followed by fixed 32-byte big-endian elements. Deterministic bytes are
// what make content addressing (CID = SHA-256 of the block) meaningful.
func (b Block) Encode() ([]byte, error) {
	buf := make([]byte, 4+scalar.ElementSize*len(b.Values))
	binary.BigEndian.PutUint32(buf, uint32(len(b.Values)))
	for i, v := range b.Values {
		if v.Sign() < 0 || v.BitLen() > scalar.ElementSize*8 {
			return nil, fmt.Errorf("model: element %d: %d-bit value (sign %d) is not a %d-byte element", i, v.BitLen(), v.Sign(), scalar.ElementSize)
		}
		// Words go least significant first from the end of the element's
		// bytes backwards; the rest of buf is already zero.
		end := 4 + (i+1)*scalar.ElementSize
		for _, w := range v.Bits() {
			if bits.UintSize == 64 {
				binary.BigEndian.PutUint64(buf[end-8:end], uint64(w))
			} else {
				binary.BigEndian.PutUint32(buf[end-4:end], uint32(w))
			}
			end -= bits.UintSize / 8
		}
	}
	return buf, nil
}

// DecodeBlock parses a serialized block into a slab-backed vector. Any
// 32-byte value is accepted; the sum kernels reduce one at or above the order.
func DecodeBlock(data []byte) (Block, error) {
	n, err := ElementCount(data)
	if err != nil {
		return Block{}, err
	}
	values := scalar.NewVec(n)
	for i, v := range values {
		off := 4 + i*scalar.ElementSize
		v.SetBytes(data[off : off+scalar.ElementSize])
	}
	return Block{Values: values}, nil
}

// ElementCount checks a serialized block's framing and returns how many
// elements it holds, counter included. A block it accepts is one
// DecodeBlock accepts.
func ElementCount(data []byte) (int, error) {
	if len(data) < 4 {
		return 0, errors.New("model: block too short")
	}
	n := binary.BigEndian.Uint32(data)
	want := 4 + int(n)*scalar.ElementSize
	if len(data) != want {
		return 0, fmt.Errorf("model: block length %d != expected %d for %d elements", len(data), want, n)
	}
	return int(n), nil
}

// Quantize converts a float partition into a block, appending the averaging
// counter 1 (Algorithm 1 line 14).
func Quantize(q *scalar.Quantizer, part []float64) (Block, error) {
	values := scalar.NewVec(len(part) + 1)
	if err := q.EncodeInto(values[:len(part)], part); err != nil {
		return Block{}, err
	}
	if err := q.EncodeInto(values[len(part):], []float64{1}); err != nil {
		return Block{}, err
	}
	return Block{Values: values}, nil
}

// QuantizeEncode is Quantize followed by Block.Encode in one pass and one
// allocation: each value is rounded straight into its wire element. The
// bytes are the same, and so are the refusals of values outside the
// fixed-point range.
func QuantizeEncode(q *scalar.Quantizer, part []float64) ([]byte, error) {
	buf := make([]byte, BlockSize(len(part)))
	binary.BigEndian.PutUint32(buf, uint32(len(part)+1))
	counter := len(buf) - scalar.ElementSize
	if err := q.EncodeBytes(buf[4:counter], part); err != nil {
		return nil, err
	}
	if err := q.EncodeBytes(buf[counter:], []float64{1}); err != nil {
		return nil, err
	}
	return buf, nil
}

// Dequantize recovers the averaged float partition from an aggregated
// update block by dividing the decoded sum by the decoded counter
// (Algorithm 1 lines 20-21).
func Dequantize(q *scalar.Quantizer, b Block) ([]float64, error) {
	if len(b.Values) < 2 {
		return nil, errShortUpdate
	}
	return average(q.DecodeVec(b.Values))
}

// DecodeDequantize is Dequantize of DecodeBlock(data), float for float and
// error for error, read straight from the wire elements. It allocates only
// its result.
func DecodeDequantize(q *scalar.Quantizer, data []byte) ([]float64, error) {
	n, err := ElementCount(data)
	if err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, errShortUpdate
	}
	vals := make([]float64, n)
	q.DecodeBytes(vals, data[4:])
	return average(vals)
}

var errShortUpdate = errors.New("model: update block must hold at least one value and the counter")

// average divides the decoded sums by the decoded counter, the last of
// vals, in place and returns the sums.
func average(vals []float64) ([]float64, error) {
	count := vals[len(vals)-1]
	if count <= 0 || math.Abs(count-math.Round(count)) > 1e-6 {
		return nil, fmt.Errorf("model: invalid averaging counter %v", count)
	}
	vals = vals[:len(vals)-1]
	for i := range vals {
		vals[i] /= count
	}
	return vals, nil
}

// Sum returns the element-wise field sum of blocks (gradients and counters
// alike). This is exactly the aggregation step the paper's aggregators and
// merge-and-download providers perform.
func Sum(f *scalar.Field, blocks ...Block) (Block, error) {
	if len(blocks) == 0 {
		return Block{}, errors.New("model: no blocks to sum")
	}
	vecs := make([][]*big.Int, len(blocks))
	for i, b := range blocks {
		vecs[i] = b.Values
	}
	sum, err := f.SumVecs(vecs...)
	if err != nil {
		return Block{}, fmt.Errorf("model: %w", err)
	}
	return Block{Values: sum}, nil
}

// Merge is the one merge kernel: the serialized field sum of serialized
// gradient blocks, served by a provider for merge-and-download and folded
// locally by a degraded client. It touches only its arguments.
//
// It makes one pass over the encoded bytes, holding each element as four
// 64-bit limbs, and allocates only its output. An element at or above the
// order is reduced as it is read, so the bytes and the errors are those of
// DecodeBlock, Sum and Encode.
func Merge(f *scalar.Field, datas ...[]byte) ([]byte, error) {
	if len(datas) == 0 {
		return nil, errors.New("model: no blocks to sum")
	}
	for i, data := range datas {
		if _, err := ElementCount(data); err != nil {
			return nil, fmt.Errorf("model: merge input %d: %w", i, err)
		}
	}
	for _, data := range datas {
		if len(data) != len(datas[0]) {
			return nil, fmt.Errorf("model: scalar: vector length mismatch %d != %d",
				(len(data)-4)/scalar.ElementSize, (len(datas[0])-4)/scalar.ElementSize)
		}
	}
	order, ok := f.OrderLimbs()
	if !ok {
		return nil, fmt.Errorf("model: merge needs a field order of at most %d bytes", scalar.ElementSize)
	}
	m := limbs{order[0], order[1], order[2], order[3]}
	out := make([]byte, len(datas[0]))
	copy(out, datas[0][:4])
	for off := 4; off < len(out); off += scalar.ElementSize {
		z := loadLimbs(datas[0][off:]).reduce(m)
		for _, data := range datas[1:] {
			z = z.addMod(loadLimbs(data[off:]).reduce(m), m)
		}
		z.store(out[off:])
	}
	return out, nil
}

// limbs is one 256-bit element, least significant limb first. Four scalar
// fields rather than an array keep it in registers.
type limbs struct{ w0, w1, w2, w3 uint64 }

// loadLimbs reads the big-endian element at the front of b.
func loadLimbs(b []byte) limbs {
	_ = b[scalar.ElementSize-1]
	return limbs{
		binary.BigEndian.Uint64(b[24:]),
		binary.BigEndian.Uint64(b[16:]),
		binary.BigEndian.Uint64(b[8:]),
		binary.BigEndian.Uint64(b),
	}
}

// store writes x big-endian to the front of b.
func (x limbs) store(b []byte) {
	_ = b[scalar.ElementSize-1]
	binary.BigEndian.PutUint64(b, x.w3)
	binary.BigEndian.PutUint64(b[8:], x.w2)
	binary.BigEndian.PutUint64(b[16:], x.w1)
	binary.BigEndian.PutUint64(b[24:], x.w0)
}

// sub returns x − y mod 2²⁵⁶ and the borrow out (1 when x < y).
func (x limbs) sub(y limbs) (limbs, uint64) {
	var d limbs
	var b uint64
	d.w0, b = bits.Sub64(x.w0, y.w0, 0)
	d.w1, b = bits.Sub64(x.w1, y.w1, b)
	d.w2, b = bits.Sub64(x.w2, y.w2, b)
	d.w3, b = bits.Sub64(x.w3, y.w3, b)
	return d, b
}

// reduce returns x mod m. Honest elements are already below m and cost one
// subtraction; for a 256-bit order one more suffices, since x < 2²⁵⁶ < 2m.
func (x limbs) reduce(m limbs) limbs {
	d, b := x.sub(m)
	if b != 0 {
		return x
	}
	if _, b = d.sub(m); b != 0 {
		return d
	}
	return x.mod(m)
}

// mod is reduce's path for orders below 2²⁵⁵: binary long division, one
// shift and conditional subtraction per bit of x.
func (x limbs) mod(m limbs) limbs {
	var r limbs
	for _, w := range [4]uint64{x.w3, x.w2, x.w1, x.w0} {
		for i := 63; i >= 0; i-- {
			carry := r.w3 >> 63
			r = limbs{r.w0<<1 | w>>uint(i)&1, r.w1<<1 | r.w0>>63, r.w2<<1 | r.w1>>63, r.w3<<1 | r.w2>>63}
			if d, b := r.sub(m); carry != 0 || b == 0 {
				r = d
			}
		}
	}
	return r
}

// addMod returns (x + y) mod m for x, y < m, without a data-dependent branch:
// the sum minus m is kept when the addition carried out of 256 bits or the
// subtraction did not borrow.
func (x limbs) addMod(y, m limbs) limbs {
	var s limbs
	var c uint64
	s.w0, c = bits.Add64(x.w0, y.w0, 0)
	s.w1, c = bits.Add64(x.w1, y.w1, c)
	s.w2, c = bits.Add64(x.w2, y.w2, c)
	s.w3, c = bits.Add64(x.w3, y.w3, c)
	d, b := s.sub(m)
	keep := -(c | (b ^ 1))
	return limbs{
		s.w0 ^ (s.w0^d.w0)&keep,
		s.w1 ^ (s.w1^d.w1)&keep,
		s.w2 ^ (s.w2^d.w2)&keep,
		s.w3 ^ (s.w3^d.w3)&keep,
	}
}

// EncodeFloats serializes a float64 vector (used for checkpoints and
// baseline payloads; not content-addressed protocol data).
func EncodeFloats(vec []float64) []byte {
	buf := make([]byte, 4+8*len(vec))
	binary.BigEndian.PutUint32(buf, uint32(len(vec)))
	for i, v := range vec {
		binary.BigEndian.PutUint64(buf[4+8*i:], math.Float64bits(v))
	}
	return buf
}

// DecodeFloats parses a vector produced by EncodeFloats.
func DecodeFloats(data []byte) ([]float64, error) {
	if len(data) < 4 {
		return nil, errors.New("model: float vector too short")
	}
	n := binary.BigEndian.Uint32(data)
	if len(data) != 4+8*int(n) {
		return nil, fmt.Errorf("model: float vector length %d != expected %d", len(data), 4+8*int(n))
	}
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = math.Float64frombits(binary.BigEndian.Uint64(data[4+8*i:]))
	}
	return vec, nil
}

package model

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"testing"

	"ipls/internal/group"
	"ipls/internal/scalar"
)

// FuzzDecodeBlock hammers the block decoder with arbitrary bytes: it must
// never panic, and any block it accepts must re-encode to the same bytes
// (canonical encoding).
func FuzzDecodeBlock(f *testing.F) {
	field := scalar.NewField(group.Secp256k1().N)
	quant, err := scalar.NewQuantizer(field, scalar.DefaultShift)
	if err != nil {
		f.Fatal(err)
	}
	good, err := Quantize(quant, []float64{1.5, -2.25, 0})
	if err != nil {
		f.Fatal(err)
	}
	seed, err := good.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		block, err := DecodeBlock(data)
		if err != nil {
			return
		}
		re, err := block.Encode()
		if err != nil {
			t.Fatalf("accepted block failed to re-encode: %v", err)
		}
		if string(re) != string(data) {
			t.Fatal("decode/encode round trip is not canonical")
		}
	})
}

// FuzzDecodeFloats checks the float-vector codec never panics and round
// trips canonically.
func FuzzDecodeFloats(f *testing.F) {
	f.Add(EncodeFloats([]float64{1, -2, 3.5}))
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		vec, err := DecodeFloats(data)
		if err != nil {
			return
		}
		if string(EncodeFloats(vec)) != string(data) {
			t.Fatal("float codec not canonical")
		}
	})
}

// FuzzVectorKernels is the randomized arm of the differential test in
// property_test.go: the fuzzer's bytes become floats (8 bytes each, every
// bit pattern including NaNs and infinities) and two vectors of wire
// elements (32 bytes each), and the vector kernels must agree with the
// scalar reference on all of them, over both curve orders.
func FuzzVectorKernels(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add(EncodeFloats([]float64{1.5, -2.25, 0, math.NaN()})[4:], []byte{1}, []byte{2})
	ones := bytes.Repeat([]byte{0xff}, 2*scalar.ElementSize)
	f.Add(EncodeFloats([]float64{math.Inf(-1)})[4:], ones, ones)
	k1 := group.Secp256k1().N.Bytes()
	f.Add([]byte{}, append(k1, k1...), ones)
	elements := func(raw []byte, n int) []*big.Int {
		out := make([]*big.Int, n)
		for i := range out {
			out[i] = new(big.Int).SetBytes(raw[i*scalar.ElementSize : (i+1)*scalar.ElementSize])
		}
		return out
	}
	f.Fuzz(func(t *testing.T, floats, rawA, rawB []byte) {
		xs := make([]float64, len(floats)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.BigEndian.Uint64(floats[8*i:]))
		}
		n := min(len(rawA), len(rawB)) / scalar.ElementSize
		for _, curve := range []*group.Curve{group.Secp256k1(), group.Secp256r1()} {
			checkVectorKernels(t, curve.N, xs, elements(rawA, n), elements(rawB, n))
		}
	})
}

package group

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzDecode checks the uncompressed point decoder: no panics, and
// anything accepted is on the curve and re-encodes identically.
func FuzzDecode(f *testing.F) {
	c := Secp256k1()
	f.Add(c.Encode(c.generator()))
	f.Add(c.Encode(Infinity()))
	f.Add(make([]byte, EncodedSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := c.Decode(data)
		if err != nil {
			return
		}
		if !c.IsOnCurve(p) {
			t.Fatal("decoder accepted an off-curve point")
		}
		if string(c.Encode(p)) != string(data) {
			t.Fatal("point encoding not canonical")
		}
	})
}

// FuzzMultiExpParallel cross-checks the parallel Pippenger path against
// the sequential one on fuzzer-shaped scalar vectors. Points are derived
// deterministically from an index seed so the fuzzer explores the scalar
// space (where the recoding and bucket logic lives), not curve membership.
func FuzzMultiExpParallel(f *testing.F) {
	c := Secp256k1()
	f.Add([]byte{1})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Add(append(c.N.Bytes(), 0, 1, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Each 8-byte chunk (last one may be short) becomes one scalar,
		// stretched over the full order via multiplication with a fixed
		// wide constant so high-bit and signed-recoding paths are hit.
		stretch := new(big.Int).Lsh(big.NewInt(0x9e3779b9), 160)
		var scalars []*big.Int
		for i := 0; i < len(data) && len(scalars) < 64; i += 8 {
			end := i + 8
			if end > len(data) {
				end = len(data)
			}
			k := new(big.Int).SetBytes(data[i:end])
			if data[i]&1 == 1 {
				k.Mul(k, stretch)
			}
			scalars = append(scalars, k)
		}
		points := make([]Point, len(scalars))
		for i := range points {
			points[i] = c.ScalarMult(c.generator(), big.NewInt(int64(i)*7919+1))
		}
		seq, err := c.MultiScalarMult(points, scalars, StrategyPippenger)
		if err != nil {
			t.Fatal(err)
		}
		par, err := c.MultiScalarMult(points, scalars, StrategyParallel)
		if err != nil {
			t.Fatal(err)
		}
		if !par.Equal(seq) {
			t.Fatalf("parallel disagrees with sequential on %d scalars", len(scalars))
		}
	})
}

package model

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"ipls/internal/group"
	"ipls/internal/scalar"
)

// refMerge is Merge as the parent commit wrote it — decode every input,
// SumVecs, Encode — kept here so the limb kernel is checked against the
// big.Int path it replaced.
func refMerge(f *scalar.Field, datas ...[]byte) ([]byte, error) {
	blocks := make([]Block, len(datas))
	for i, data := range datas {
		b, err := DecodeBlock(data)
		if err != nil {
			return nil, fmt.Errorf("model: merge input %d: %w", i, err)
		}
		blocks[i] = b
	}
	sum, err := Sum(f, blocks...)
	if err != nil {
		return nil, err
	}
	return sum.Encode()
}

// mergeOrders are the orders the kernel is held to: the two curve orders
// the protocol runs on (above 2²⁵⁵, one conditional subtraction reduces any
// 32-byte value) and two small primes, for which almost every 32-byte value
// takes the long-division path.
func mergeOrders() []*big.Int {
	return []*big.Int{group.Secp256k1().N, group.Secp256r1().N, big.NewInt(7919), big.NewInt(1<<31 - 1)}
}

// checkMerge asserts that Merge over the field of the given order gives the
// reference's bytes, or its error text.
func checkMerge(t *testing.T, order *big.Int, datas ...[]byte) {
	t.Helper()
	f := scalar.NewField(order)
	got, err := Merge(f, datas...)
	want, wantErr := refMerge(f, datas...)
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("order %v, fan-in %d: Merge error %v, reference error %v", order, len(datas), err, wantErr)
		}
	case err != nil:
		t.Fatalf("order %v, fan-in %d: Merge error %v, reference gave bytes", order, len(datas), err)
	case !bytes.Equal(got, want):
		t.Fatalf("order %v, fan-in %d: Merge bytes differ from the reference", order, len(datas))
	}
}

// encodeElements frames elements (each reduced mod 2²⁵⁶) as a block.
func encodeElements(elems []*big.Int) []byte {
	out := make([]byte, 4+scalar.ElementSize*len(elems))
	binary.BigEndian.PutUint32(out, uint32(len(elems)))
	mask := new(big.Int).Lsh(big.NewInt(1), scalar.ElementSize*8)
	mask.Sub(mask, big.NewInt(1))
	for i, e := range elems {
		new(big.Int).And(e, mask).FillBytes(out[4+i*scalar.ElementSize : 4+(i+1)*scalar.ElementSize])
	}
	return out
}

// TestMergeMatchesReference drives the kernel with every edge element
// meeting every other at fan-in 1 to 4, with random fill, and with every
// framing error, over all four orders.
func TestMergeMatchesReference(t *testing.T) {
	one := big.NewInt(1)
	pow := func(n uint) *big.Int { return new(big.Int).Lsh(one, n) }
	sub := func(x, y *big.Int) *big.Int { return new(big.Int).Sub(x, y) }
	add := func(x, y *big.Int) *big.Int { return new(big.Int).Add(x, y) }
	rng := rand.New(rand.NewSource(31))
	for _, m := range mergeOrders() {
		edges := []*big.Int{
			big.NewInt(0), one, sub(m, one), m, add(m, one), sub(add(m, m), one), add(m, m),
			new(big.Int).Rsh(m, 1), sub(pow(256), one), sub(pow(256), m), pow(255), pow(64), sub(pow(64), one),
			pow(128), sub(m, pow(62)),
		}
		for i, e := range edges {
			if e.Sign() < 0 { // sub(m, 2⁶²) below the small orders
				edges[i] = new(big.Int).Neg(e)
			}
		}
		for fanin := 1; fanin <= 4; fanin++ {
			// Every tuple of edges, one element per position.
			n := 1
			for i := 0; i < fanin; i++ {
				n *= len(edges)
			}
			inputs := make([][]*big.Int, fanin)
			for pos := 0; pos < n; pos++ {
				k := pos
				for j := range inputs {
					inputs[j] = append(inputs[j], edges[k%len(edges)])
					k /= len(edges)
				}
			}
			datas := make([][]byte, fanin)
			for j := range inputs {
				datas[j] = encodeElements(inputs[j])
			}
			checkMerge(t, m, datas...)

			for trial := 0; trial < 10; trial++ {
				length := rng.Intn(40)
				for j := range datas {
					raw := make([]byte, 4+length*scalar.ElementSize)
					binary.BigEndian.PutUint32(raw, uint32(length))
					rng.Read(raw[4:])
					datas[j] = raw
				}
				checkMerge(t, m, datas...)
			}
		}

		good := encodeElements([]*big.Int{one, m})
		longer := encodeElements([]*big.Int{one, m, one})
		checkMerge(t, m)
		checkMerge(t, m, good[:3])
		checkMerge(t, m, good, good[:len(good)-1])
		checkMerge(t, m, good, append(good[:len(good):len(good)], 0))
		checkMerge(t, m, good, longer)
		checkMerge(t, m, longer, good, good[:2])
		checkMerge(t, m, encodeElements(nil), encodeElements(nil))
		wrongCount := append([]byte(nil), good...)
		wrongCount[3] = 3
		checkMerge(t, m, good, wrongCount)
	}
}

// FuzzMerge is the randomized arm: the fuzzer's bytes become up to four
// blocks of equal length, one of them optionally misframed, and Merge must
// agree with the reference on every order.
func FuzzMerge(f *testing.F) {
	k1 := group.Secp256k1().N.Bytes()
	ones := bytes.Repeat([]byte{0xff}, scalar.ElementSize)
	f.Add(uint8(1), uint8(0), append(append([]byte(nil), k1...), ones...))
	f.Add(uint8(3), uint8(0), bytes.Repeat(ones, 4))
	f.Add(uint8(0), uint8(1), []byte{1, 2, 3})
	f.Add(uint8(2), uint8(2), bytes.Repeat([]byte{0x80}, 6*scalar.ElementSize))
	f.Add(uint8(1), uint8(3), bytes.Repeat(k1, 2))
	f.Add(uint8(0), uint8(4), []byte{})
	orders := mergeOrders()
	f.Fuzz(func(t *testing.T, fanin, shape uint8, raw []byte) {
		k := 1 + int(fanin)%4
		n := len(raw) / (k * scalar.ElementSize)
		datas := make([][]byte, k)
		for j := range datas {
			data := make([]byte, 4+n*scalar.ElementSize)
			binary.BigEndian.PutUint32(data, uint32(n))
			copy(data[4:], raw[j*n*scalar.ElementSize:])
			datas[j] = data
		}
		last := datas[k-1]
		switch shape % 8 {
		case 1: // short
			datas[k-1] = last[:min(len(last), int(shape)%4)]
		case 2: // wrong length for its count
			datas[k-1] = last[:len(last)-1-int(shape)%len(last)]
		case 3: // one element fewer, correctly framed
			if n > 0 {
				datas[k-1] = last[:len(last)-scalar.ElementSize]
				binary.BigEndian.PutUint32(datas[k-1], uint32(n-1))
			}
		case 4: // count that disagrees with the length
			binary.BigEndian.PutUint32(last, uint32(n)+uint32(shape))
		}
		for _, order := range orders {
			checkMerge(t, order, datas...)
		}
	})
}

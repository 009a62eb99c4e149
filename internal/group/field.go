package group

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// fieldElem is an element of GF(p) in Montgomery form: x·R mod p with
// R = 2²⁵⁶, held as four little-endian 64-bit limbs. Its zero value is
// the field's zero. A fieldElem only means something relative to the
// field descriptor that produced it.
type fieldElem [4]uint64

// field describes GF(p) for a 256-bit prime p > 2²⁵⁵ (both curves' primes
// qualify), with the constants Montgomery multiplication needs.
type field struct {
	p    fieldElem // p, plain limbs
	pInv uint64    // −p⁻¹ mod 2⁶⁴
	r2   fieldElem // R² mod p, plain limbs: mul(x, r2) enters Montgomery form
	one  fieldElem // R mod p: 1 in Montgomery form
	pBig *big.Int
}

func newField(p *big.Int) *field {
	f := &field{pBig: p}
	f.p = limbsOf(p)
	// Newton's iteration doubles the correct low bits of p⁻¹ mod 2⁶⁴ each
	// step; p is odd, so inv = p is already correct to 3 bits.
	inv := f.p[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - f.p[0]*inv
	}
	f.pInv = -inv
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	f.one = limbsOf(new(big.Int).Mod(r, p))
	f.r2 = limbsOf(new(big.Int).Mod(new(big.Int).Mul(r, r), p))
	return f
}

// limbsOf splits a non-negative integer below 2²⁵⁶ into little-endian
// limbs.
func limbsOf(x *big.Int) [4]uint64 {
	var buf [32]byte
	x.FillBytes(buf[:])
	var l [4]uint64
	for i := range l {
		l[i] = binary.BigEndian.Uint64(buf[24-8*i:])
	}
	return l
}

// fromBig enters Montgomery form. Inputs outside [0, p) are reduced first.
func (f *field) fromBig(x *big.Int) fieldElem {
	if x.Sign() < 0 || x.Cmp(f.pBig) >= 0 {
		x = new(big.Int).Mod(x, f.pBig)
	}
	return f.mul(limbsOf(x), f.r2)
}

// toBig leaves Montgomery form.
func (f *field) toBig(x fieldElem) *big.Int {
	l := f.mul(x, fieldElem{1})
	var buf [32]byte
	for i := range l {
		binary.BigEndian.PutUint64(buf[24-8*i:], l[i])
	}
	return new(big.Int).SetBytes(buf[:])
}

func (x fieldElem) isZero() bool { return x[0]|x[1]|x[2]|x[3] == 0 }

// madd returns the 128-bit a·b + c + d as (hi, lo); it cannot overflow.
func madd(a, b, c, d uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry
	lo, carry = bits.Add64(lo, d, 0)
	hi += carry
	return hi, lo
}

// mul returns x·y·R⁻¹ mod p by coarsely integrated operand scanning
// (CIOS): each round adds x·y[i] and then one multiple of p that clears
// the lowest limb, so the running total never exceeds five limbs plus a
// carry bit, and ends below 2p.
func (f *field) mul(x, y fieldElem) fieldElem {
	p0, p1, p2, p3 := f.p[0], f.p[1], f.p[2], f.p[3]
	var t0, t1, t2, t3, t4 uint64
	for _, yi := range y {
		var c, t5 uint64
		c, t0 = madd(x[0], yi, t0, 0)
		c, t1 = madd(x[1], yi, t1, c)
		c, t2 = madd(x[2], yi, t2, c)
		c, t3 = madd(x[3], yi, t3, c)
		t4, t5 = bits.Add64(t4, c, 0)

		m := t0 * f.pInv
		c, _ = madd(m, p0, t0, 0)
		c, t0 = madd(m, p1, t1, c)
		c, t1 = madd(m, p2, t2, c)
		c, t2 = madd(m, p3, t3, c)
		t3, c = bits.Add64(t4, c, 0)
		t4 = t5 + c
	}
	return f.reduceOnce(fieldElem{t0, t1, t2, t3}, t4)
}

// reduceOnce maps carry·2²⁵⁶ + x, known to be below 2p, into [0, p).
func (f *field) reduceOnce(x fieldElem, carry uint64) fieldElem {
	var d fieldElem
	var b uint64
	d[0], b = bits.Sub64(x[0], f.p[0], 0)
	d[1], b = bits.Sub64(x[1], f.p[1], b)
	d[2], b = bits.Sub64(x[2], f.p[2], b)
	d[3], b = bits.Sub64(x[3], f.p[3], b)
	if carry == 0 && b == 1 {
		return x // x < p
	}
	return d
}

func (f *field) square(x fieldElem) fieldElem { return f.mul(x, x) }

func (f *field) add(x, y fieldElem) fieldElem {
	var s fieldElem
	var c uint64
	s[0], c = bits.Add64(x[0], y[0], 0)
	s[1], c = bits.Add64(x[1], y[1], c)
	s[2], c = bits.Add64(x[2], y[2], c)
	s[3], c = bits.Add64(x[3], y[3], c)
	return f.reduceOnce(s, c)
}

func (f *field) sub(x, y fieldElem) fieldElem {
	var d fieldElem
	var b uint64
	d[0], b = bits.Sub64(x[0], y[0], 0)
	d[1], b = bits.Sub64(x[1], y[1], b)
	d[2], b = bits.Sub64(x[2], y[2], b)
	d[3], b = bits.Sub64(x[3], y[3], b)
	if b == 0 {
		return d
	}
	var c uint64
	d[0], c = bits.Add64(d[0], f.p[0], 0)
	d[1], c = bits.Add64(d[1], f.p[1], c)
	d[2], c = bits.Add64(d[2], f.p[2], c)
	d[3], _ = bits.Add64(d[3], f.p[3], c)
	return d
}

func (f *field) neg(x fieldElem) fieldElem { return f.sub(fieldElem{}, x) }

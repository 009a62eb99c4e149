// Package group implements prime-order elliptic-curve groups in short
// Weierstrass form (y² = x³ + ax + b over GF(p)) with the two curves the
// paper evaluates: secp256k1 and secp256r1 (NIST P-256).
//
// Every curve does its point arithmetic in Jacobian coordinates over a
// fixed-limb Montgomery field (four uint64 limbs, see field.go), so point
// additions and doublings allocate nothing. math/big appears only at the
// affine boundary: the public Point type, encodings, the one inversion per
// result, and scalar reduction.
package group

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sync/atomic"
)

// Point is an affine curve point. The zero value (nil coordinates)
// represents the point at infinity (the group identity).
type Point struct {
	X, Y *big.Int
}

// Infinity returns the group identity.
func Infinity() Point { return Point{} }

// IsInfinity reports whether p is the identity.
func (p Point) IsInfinity() bool { return p.X == nil || p.Y == nil }

// Equal reports whether two points are the same group element.
func (p Point) Equal(q Point) bool {
	if p.IsInfinity() || q.IsInfinity() {
		return p.IsInfinity() && q.IsInfinity()
	}
	return p.X.Cmp(q.X) == 0 && p.Y.Cmp(q.Y) == 0
}

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	if p.IsInfinity() {
		return Point{}
	}
	return Point{X: new(big.Int).Set(p.X), Y: new(big.Int).Set(p.Y)}
}

// Curve describes a short Weierstrass curve y² = x³ + ax + b over GF(P) with
// a base point (Gx, Gy) of prime order N.
type Curve struct {
	Name string
	P    *big.Int // field prime
	N    *big.Int // group order
	A    *big.Int // curve coefficient a (mod P)
	B    *big.Int // curve coefficient b
	Gx   *big.Int // base point x
	Gy   *big.Int // base point y

	fp *field    // GF(P) for the Jacobian layer
	a  fieldElem // A in Montgomery form

	// par bounds StrategyParallel worker goroutines (0 = GOMAXPROCS);
	// only tests set it, to force a worker count. Atomic because the
	// constructors return shared singletons that multiexps read while a
	// test changes it.
	par atomic.Int32
}

// EncodedSize is the size of an uncompressed encoded point: a one-byte tag
// followed by two 32-byte coordinates.
const EncodedSize = 65

var (
	secp256k1  = newSecp256k1()
	secp256r1  = newSecp256r1("secp256r1")
	secp256r1F = newSecp256r1("secp256r1-fast")
)

// Secp256k1 returns the secp256k1 curve (a=0, b=7), as used by Bitcoin.
func Secp256k1() *Curve { return secp256k1 }

// Secp256r1 returns the NIST P-256 curve.
func Secp256r1() *Curve { return secp256r1 }

// Secp256r1Fast returns NIST P-256 under the name "secp256r1-fast", the
// default curve. It runs the same arithmetic as Secp256r1; the two differ
// only in Name, which HashToPoint hashes as the generator domain. The name
// stays because Pedersen generators, stored commitments, snapshots and
// CLI defaults were all derived under it.
func Secp256r1Fast() *Curve { return secp256r1F }

// ByName resolves a curve by its canonical name.
func ByName(name string) (*Curve, error) {
	switch name {
	case "secp256k1":
		return Secp256k1(), nil
	case "secp256r1":
		return Secp256r1(), nil
	case "secp256r1-fast", "p256-fast":
		return Secp256r1Fast(), nil
	default:
		return nil, fmt.Errorf("group: unknown curve %q", name)
	}
}

func newSecp256k1() *Curve {
	hexInt := mustHex
	return withField(&Curve{
		Name: "secp256k1",
		P:    hexInt("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f"),
		N:    hexInt("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"),
		A:    big.NewInt(0),
		B:    big.NewInt(7),
		Gx:   hexInt("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"),
		Gy:   hexInt("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"),
	})
}

func newSecp256r1(name string) *Curve {
	hexInt := mustHex
	p := hexInt("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
	return withField(&Curve{
		Name: name,
		P:    p,
		N:    hexInt("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"),
		A:    new(big.Int).Sub(p, big.NewInt(3)), // a = -3 mod p
		B:    hexInt("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"),
		Gx:   hexInt("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
		Gy:   hexInt("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"),
	})
}

// withField attaches the Montgomery field descriptor the Jacobian layer
// runs on.
func withField(c *Curve) *Curve {
	c.fp = newField(c.P)
	c.a = c.fp.fromBig(c.A)
	return c
}

func mustHex(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("group: bad hex constant " + s)
	}
	return v
}

// generator returns the curve's base point.
func (c *Curve) generator() Point {
	return Point{X: new(big.Int).Set(c.Gx), Y: new(big.Int).Set(c.Gy)}
}

// IsOnCurve reports whether p satisfies the curve equation (the identity is
// considered on-curve).
func (c *Curve) IsOnCurve(p Point) bool {
	if p.IsInfinity() {
		return true
	}
	if p.X.Sign() < 0 || p.X.Cmp(c.P) >= 0 || p.Y.Sign() < 0 || p.Y.Cmp(c.P) >= 0 {
		return false
	}
	// y² == x³ + ax + b (mod p)
	lhs := new(big.Int).Mul(p.Y, p.Y)
	lhs.Mod(lhs, c.P)
	rhs := new(big.Int).Mul(p.X, p.X)
	rhs.Mul(rhs, p.X)
	ax := new(big.Int).Mul(c.A, p.X)
	rhs.Add(rhs, ax)
	rhs.Add(rhs, c.B)
	rhs.Mod(rhs, c.P)
	return lhs.Cmp(rhs) == 0
}

// Add returns p + q.
func (c *Curve) Add(p, q Point) Point {
	if p.IsInfinity() {
		return q.Clone()
	}
	if q.IsInfinity() {
		return p.Clone()
	}
	return c.fromJacobian(c.jacAdd(c.toJacobian(p), c.toJacobian(q)))
}

// Neg returns -p.
func (c *Curve) Neg(p Point) Point {
	if p.IsInfinity() {
		return Point{}
	}
	return Point{X: new(big.Int).Set(p.X), Y: new(big.Int).Sub(c.P, p.Y)}
}

// ScalarMult returns k·p. The scalar is reduced modulo the group order.
func (c *Curve) ScalarMult(p Point, k *big.Int) Point {
	kr := new(big.Int).Mod(k, c.N)
	if kr.Sign() == 0 || p.IsInfinity() {
		return Point{}
	}
	return c.fromJacobian(c.jacScalarMult(c.toJacobian(p), limbsOf(kr)))
}

// Encode serializes a point as a 65-byte uncompressed encoding. The identity
// encodes as 65 zero bytes.
func (c *Curve) Encode(p Point) []byte {
	buf := make([]byte, EncodedSize)
	if p.IsInfinity() {
		return buf
	}
	buf[0] = 4
	p.X.FillBytes(buf[1:33])
	p.Y.FillBytes(buf[33:65])
	return buf
}

// Decode parses an encoding produced by Encode and validates curve
// membership.
func (c *Curve) Decode(b []byte) (Point, error) {
	if len(b) != EncodedSize {
		return Point{}, fmt.Errorf("group: point must be %d bytes, got %d", EncodedSize, len(b))
	}
	if b[0] == 0 {
		for _, v := range b[1:] {
			if v != 0 {
				return Point{}, errors.New("group: malformed identity encoding")
			}
		}
		return Point{}, nil
	}
	if b[0] != 4 {
		return Point{}, fmt.Errorf("group: unsupported point tag %#x", b[0])
	}
	p := Point{
		X: new(big.Int).SetBytes(b[1:33]),
		Y: new(big.Int).SetBytes(b[33:65]),
	}
	if !c.IsOnCurve(p) {
		return Point{}, errors.New("group: point not on curve")
	}
	return p, nil
}

// HashToPoint derives a curve point from a label and an index using
// try-and-increment: candidate x coordinates are produced by hashing
// (label, index, counter) until one lies on the curve. The even-y root is
// chosen so the mapping is deterministic. Nothing about the discrete log of
// the result is known to anyone, which is what Pedersen generators require.
func (c *Curve) HashToPoint(label string, index int) Point {
	var ctrBuf [8]byte
	var idxBuf [8]byte
	binary.BigEndian.PutUint64(idxBuf[:], uint64(index))
	for ctr := uint64(0); ; ctr++ {
		binary.BigEndian.PutUint64(ctrBuf[:], ctr)
		h := sha256.New()
		h.Write([]byte("ipls/hash-to-point/"))
		h.Write([]byte(c.Name))
		h.Write([]byte{0})
		h.Write([]byte(label))
		h.Write([]byte{0})
		h.Write(idxBuf[:])
		h.Write(ctrBuf[:])
		x := new(big.Int).SetBytes(h.Sum(nil))
		if x.Cmp(c.P) >= 0 {
			continue
		}
		y, ok := c.solveY(x)
		if !ok {
			continue
		}
		if y.Bit(0) == 1 {
			y.Sub(c.P, y)
		}
		p := Point{X: x, Y: y}
		if !c.IsOnCurve(p) { // defensive; should always hold
			continue
		}
		return p
	}
}

// solveY returns a square root of x³ + ax + b mod p if one exists. Both
// supported primes satisfy p ≡ 3 (mod 4), so the root is t^((p+1)/4).
func (c *Curve) solveY(x *big.Int) (*big.Int, bool) {
	t := new(big.Int).Mul(x, x)
	t.Mul(t, x)
	ax := new(big.Int).Mul(c.A, x)
	t.Add(t, ax)
	t.Add(t, c.B)
	t.Mod(t, c.P)
	exp := new(big.Int).Add(c.P, big.NewInt(1))
	exp.Rsh(exp, 2)
	y := new(big.Int).Exp(t, exp, c.P)
	check := new(big.Int).Mul(y, y)
	check.Mod(check, c.P)
	if check.Cmp(t) != 0 {
		return nil, false
	}
	return y, true
}

package group

import "math/big"

// jacobianPoint is a point in Jacobian projective coordinates over the
// curve's Montgomery field: (X, Y, Z) represents the affine point
// (X/Z², Y/Z³). Z = 0 is the identity, so the zero value is the identity.
type jacobianPoint struct {
	x, y, z fieldElem
}

func (j jacobianPoint) isInfinity() bool { return j.z.isZero() }

// toJacobian is the affine boundary into limb arithmetic.
func (c *Curve) toJacobian(p Point) jacobianPoint {
	if p.IsInfinity() {
		return jacobianPoint{}
	}
	return jacobianPoint{x: c.fp.fromBig(p.X), y: c.fp.fromBig(p.Y), z: c.fp.one}
}

// fromJacobian is the affine boundary out of limb arithmetic. Its one
// inversion is a math/big ModInverse: 7× faster than Fermat's x^(p−2) in
// limbs, and at one per multiexp its allocations do not matter.
func (c *Curve) fromJacobian(j jacobianPoint) Point {
	if j.isInfinity() {
		return Point{}
	}
	f := c.fp
	zInv := f.fromBig(new(big.Int).ModInverse(f.toBig(j.z), f.pBig))
	zInv2 := f.square(zInv)
	x := f.mul(j.x, zInv2)
	y := f.mul(j.y, f.mul(zInv2, zInv))
	return Point{X: f.toBig(x), Y: f.toBig(y)}
}

// jacNeg negates a Jacobian point: (X, Y, Z) → (X, −Y, Z).
func (c *Curve) jacNeg(p jacobianPoint) jacobianPoint {
	p.y = c.fp.neg(p.y)
	return p
}

// jacDouble computes 2p using the generic-a doubling formula:
// S = 4XY², M = 3X² + aZ⁴, X' = M² − 2S, Y' = M(S − X') − 8Y⁴, Z' = 2YZ.
func (c *Curve) jacDouble(p jacobianPoint) jacobianPoint {
	if p.isInfinity() || p.y.isZero() {
		return jacobianPoint{}
	}
	f := c.fp
	y2 := f.square(p.y)
	s := f.mul(p.x, y2)
	s = f.add(s, s)
	s = f.add(s, s)

	x2 := f.square(p.x)
	m := f.add(f.add(x2, x2), x2)
	if !c.a.isZero() {
		z2 := f.square(p.z)
		m = f.add(m, f.mul(c.a, f.square(z2)))
	}

	x3 := f.sub(f.square(m), f.add(s, s))

	y4 := f.square(y2)
	y48 := f.add(y4, y4)
	y48 = f.add(y48, y48)
	y48 = f.add(y48, y48)
	y3 := f.sub(f.mul(m, f.sub(s, x3)), y48)

	z3 := f.mul(p.y, p.z)
	z3 = f.add(z3, z3)
	return jacobianPoint{x: x3, y: y3, z: z3}
}

// jacAdd computes p + q with the add-2007-bl formula (11M + 5S), falling
// back to jacDouble when the inputs coincide.
func (c *Curve) jacAdd(p, q jacobianPoint) jacobianPoint {
	if p.isInfinity() {
		return q
	}
	if q.isInfinity() {
		return p
	}
	f := c.fp
	z1z1 := f.square(p.z)
	z2z2, u1, s1 := f.one, p.x, p.y
	if q.z != f.one {
		// q has Z = 1 when it comes straight from toJacobian, as every
		// point Pippenger adds into a bucket does; skipping these three
		// products then saves a fifth of the addition.
		z2z2 = f.square(q.z)
		u1 = f.mul(p.x, z2z2)
		s1 = f.mul(f.mul(p.y, q.z), z2z2)
	}
	u2 := f.mul(q.x, z1z1)
	s2 := f.mul(f.mul(q.y, p.z), z1z1)

	h := f.sub(u2, u1)
	r := f.sub(s2, s1)
	if h.isZero() {
		if !r.isZero() {
			return jacobianPoint{}
		}
		return c.jacDouble(p)
	}
	r = f.add(r, r)

	i := f.add(h, h)
	i = f.square(i)
	j := f.mul(h, i)
	v := f.mul(u1, i)

	x3 := f.sub(f.sub(f.square(r), j), f.add(v, v))
	s1j := f.mul(s1, j)
	y3 := f.sub(f.mul(r, f.sub(v, x3)), f.add(s1j, s1j))
	z3 := f.add(p.z, q.z)
	z3 = f.mul(f.sub(f.sub(f.square(z3), z1z1), z2z2), h)
	return jacobianPoint{x: x3, y: y3, z: z3}
}

// jacScalarMult computes k·p with a 4-bit fixed window over the limbs of
// k, which must already be reduced modulo the group order.
func (c *Curve) jacScalarMult(p jacobianPoint, k [4]uint64) jacobianPoint {
	// Precompute 0p..15p.
	var table [16]jacobianPoint
	table[1] = p
	for i := 2; i < 16; i++ {
		if i%2 == 0 {
			table[i] = c.jacDouble(table[i/2])
		} else {
			table[i] = c.jacAdd(table[i-1], p)
		}
	}

	var acc jacobianPoint
	for win := 256/4 - 1; win >= 0; win-- {
		if !acc.isInfinity() {
			acc = c.jacDouble(acc)
			acc = c.jacDouble(acc)
			acc = c.jacDouble(acc)
			acc = c.jacDouble(acc)
		}
		if digit := windowDigit(&k, win, 4); digit != 0 {
			acc = c.jacAdd(acc, table[digit])
		}
	}
	return acc
}

package group

import (
	"errors"
	"fmt"
	"math/big"
)

// fixedBaseWindow is the digit width of a FixedBase table. 4 bits gives a
// 16-entry table of Jacobian points with three 32-byte limb coordinates:
// 1.5 KB per generator. Pedersen generator sets are per-session and
// long-lived, so the table amortizes across every commitment of a
// training run.
const fixedBaseWindow = 4

// FixedBase is a precomputed window table for one long-lived base point.
// Entry d holds d·P in Jacobian form, so a multiexp over fixed bases
// skips the per-call table build that multiExpWindowed pays. The table is
// immutable after NewFixedBase returns and safe for concurrent readers.
type FixedBase struct {
	table [1 << fixedBaseWindow]jacobianPoint
}

// NewFixedBase precomputes the window table for p. An infinity base yields
// a table of infinities, contributing nothing to any multiexp.
func (c *Curve) NewFixedBase(p Point) *FixedBase {
	fb := &FixedBase{}
	jp := c.toJacobian(p)
	fb.table[1] = jp
	for t := 2; t < len(fb.table); t++ {
		if t%2 == 0 {
			fb.table[t] = c.jacDouble(fb.table[t/2])
		} else {
			fb.table[t] = c.jacAdd(fb.table[t-1], jp)
		}
	}
	return fb
}

// MultiScalarMultFixed computes ∑ kᵢ·basesᵢ using precomputed window
// tables. It is the fixed-base analogue of MultiScalarMult: same result,
// but the shared-doubling walk reads table entries instead of building
// per-base tables per call.
func (c *Curve) MultiScalarMultFixed(bases []*FixedBase, scalars []*big.Int) (Point, error) {
	if len(bases) != len(scalars) {
		return Point{}, fmt.Errorf("group: %d bases but %d scalars", len(bases), len(scalars))
	}
	if len(bases) == 0 {
		return Point{}, errors.New("group: empty multi-scalar multiplication")
	}
	defer accountOp("multiexp_precomputed", len(bases))()
	return c.multiExpFixed(bases, scalars), nil
}

// multiExpFixed is the shared-doubling windowed walk over precomputed
// tables. Signed recoding still applies — scalars in the top half of the
// order flip to (order−k, −d·P) — with the negation applied lazily to the
// table entry at lookup time via jacNeg (a single field subtraction, far
// cheaper than doubling the stored table).
func (c *Curve) multiExpFixed(bases []*FixedBase, scalars []*big.Int) Point {
	const w = fixedBaseWindow
	ks, negate, maxBits := c.recodeScalars(scalars)
	if maxBits == 0 {
		return Infinity()
	}
	windows := (maxBits + w - 1) / w
	var acc jacobianPoint
	for win := windows - 1; win >= 0; win-- {
		if !acc.isInfinity() {
			for d := 0; d < w; d++ {
				acc = c.jacDouble(acc)
			}
		}
		for i := range ks {
			digit := windowDigit(&ks[i], win, w)
			if digit == 0 {
				continue
			}
			entry := bases[i].table[digit]
			if negate[i] {
				entry = c.jacNeg(entry)
			}
			acc = c.jacAdd(acc, entry)
		}
	}
	return c.fromJacobian(acc)
}

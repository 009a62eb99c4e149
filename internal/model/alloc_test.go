package model

import (
	"math/rand"
	"testing"
)

// TestBlockPathAllocationBudgets: a block costs O(1) allocations — the
// slabs, the output buffer, a scratch value — whatever its length, and the
// byte kernels a round runs allocate only their result. Each
// budget is asserted at the verifiable workloads' block length and at the
// plain workloads', three orders of magnitude apart in bytes.
func TestBlockPathAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := testQuantizer(t)
	f := testField()
	rng := rand.New(rand.NewSource(11))
	for _, length := range []int{65, 8193} {
		part := make([]float64, length-1)
		other := make([]float64, length-1)
		for i := range part {
			part[i], other[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		a, err := Quantize(q, part)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Quantize(q, other)
		if err != nil {
			t.Fatal(err)
		}
		data, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		dataB, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		budgets := []struct {
			name   string
			budget float64
			run    func() error
		}{
			{"Quantize+Encode", 8, func() error {
				blk, err := Quantize(q, part)
				if err != nil {
					return err
				}
				_, err = blk.Encode()
				return err
			}},
			{"DecodeBlock", 4, func() error {
				_, err := DecodeBlock(data)
				return err
			}},
			{"Sum", 4, func() error {
				_, err := Sum(f, a, b)
				return err
			}},
			{"Merge", 1, func() error {
				_, err := Merge(f, data, dataB)
				return err
			}},
			{"DecodeBlock+Dequantize", 6, func() error {
				blk, err := DecodeBlock(data)
				if err != nil {
					return err
				}
				_, err = Dequantize(q, blk)
				return err
			}},
			{"QuantizeEncode", 1, func() error {
				_, err := QuantizeEncode(q, part)
				return err
			}},
			{"DecodeDequantize", 1, func() error {
				_, err := DecodeDequantize(q, data)
				return err
			}},
		}
		for _, bc := range budgets {
			var runErr error
			got := testing.AllocsPerRun(10, func() {
				if err := bc.run(); err != nil {
					runErr = err
				}
			})
			if runErr != nil {
				t.Fatalf("L=%d %s: %v", length, bc.name, runErr)
			}
			t.Logf("L=%d %s: %v allocations", length, bc.name, got)
			if got > bc.budget {
				t.Errorf("L=%d %s: %v allocations, budget %v", length, bc.name, got, bc.budget)
			}
		}
	}
}

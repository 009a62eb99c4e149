package group

import (
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelMinPoints is the input size at which StrategyAuto starts
// considering the parallel Pippenger path. Below it the per-goroutine
// bucket scratch and scheduling overhead eat the win; above it each
// window carries enough bucket additions to amortize a worker.
const parallelMinPoints = 128

// workers resolves the effective worker count for a parallel multiexp.
func (c *Curve) workers() int {
	if n := int(c.par.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// multiExpPippengerParallel is Pippenger's method with the per-window
// bucket sums computed concurrently. Windows are independent: each worker
// claims window indices from an atomic counter and accumulates that
// window's buckets in its own scratch, writing the partial into sums[win].
// The final Horner-style reduction (w doublings between windows) is
// inherently sequential but only O(maxBits) curve ops, so the caller runs
// it after the workers drain. The affine result is identical to the
// sequential path: the same per-window sums combine in the same order.
func (c *Curve) multiExpPippengerParallel(points []Point, scalars []*big.Int) Point {
	if len(points) < pippengerMinPoints {
		return c.multiExpWindowed(points, scalars)
	}
	jpoints, ks, maxBits := c.recodeAll(points, scalars)
	if maxBits == 0 {
		return Infinity()
	}
	w := pippengerWindow(len(points))
	windows := (maxBits + w - 1) / w

	workers := c.workers()
	if workers > windows {
		workers = windows
	}
	sums := make([]jacobianPoint, windows)
	if workers <= 1 {
		buckets := make([]jacobianPoint, 1<<w)
		for win := 0; win < windows; win++ {
			sums[win] = c.windowBucketSum(jpoints, ks, win, w, buckets)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for g := 0; g < workers; g++ {
			go func() {
				defer wg.Done()
				// Per-worker bucket scratch; jpoints/ks are read-only.
				buckets := make([]jacobianPoint, 1<<w)
				for {
					win := int(next.Add(1)) - 1
					if win >= windows {
						return
					}
					sums[win] = c.windowBucketSum(jpoints, ks, win, w, buckets)
				}
			}()
		}
		wg.Wait()
	}

	var acc jacobianPoint
	for win := windows - 1; win >= 0; win-- {
		if !acc.isInfinity() {
			for d := 0; d < w; d++ {
				acc = c.jacDouble(acc)
			}
		}
		if !sums[win].isInfinity() {
			acc = c.jacAdd(acc, sums[win])
		}
	}
	return c.fromJacobian(acc)
}

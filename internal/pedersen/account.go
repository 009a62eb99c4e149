package pedersen

import "sync/atomic"

// Accounting and fault hooks for the commit path, mirroring
// group.SetAccount (see that package for the inversion rationale:
// pedersen must not import obs, so interested callers install hooks).

// AccountFunc is called at the start of a commit with the operation
// name ("pedersen_commit") and the vector length; the returned func is
// called when the commit completes. Either may be nil.
type AccountFunc func(op string, n int) func()

var account atomic.Pointer[AccountFunc]

// SetAccount installs the hook bracketing every commitment computation
// (nil removes it). Safe to call with commits in flight.
func SetAccount(fn AccountFunc) {
	if fn == nil {
		account.Store(nil)
		return
	}
	account.Store(&fn)
}

func accountOp(op string, n int) func() {
	fn := account.Load()
	if fn == nil {
		return func() {}
	}
	done := (*fn)(op, n)
	if done == nil {
		return func() {}
	}
	return done
}

// commitPad is the injected per-commit allocation in bytes — a fault
// knob in the repo's fault-injection tradition (storage.Network.Slow): the
// bench gate's alloc dimension is only trustworthy if a deliberately
// introduced allocation regression in this hot path actually trips it.
var commitPad atomic.Int64

// padSink keeps injected allocations reachable so the compiler cannot
// elide them; each injection replaces the last.
var padSink atomic.Pointer[[]byte]

// InjectCommitAlloc makes every subsequent commit allocate an extra n
// bytes (n <= 0 disables, the default). Test-only: it simulates an
// allocation regression in the commitment hot path so gate coverage of
// the alloc_bytes dimension can be verified end to end.
func InjectCommitAlloc(n int64) {
	commitPad.Store(n)
}

// injectAlloc performs the configured extra allocation.
func injectAlloc() {
	if n := commitPad.Load(); n > 0 {
		b := make([]byte, n)
		padSink.Store(&b)
	}
}

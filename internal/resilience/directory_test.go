package resilience_test

import (
	"context"
	"errors"
	"testing"

	"ipls/internal/core"
	"ipls/internal/directory"
	"ipls/internal/obs"
	"ipls/internal/resilience"
	"ipls/internal/storage"
	"ipls/internal/transport"
)

// Every concrete directory in the repo must offer the full surface the
// resilient wrapper forwards, and the wrapper must remain a core.Directory.
var (
	_ resilience.DirectoryService = (*directory.Service)(nil)
	_ resilience.DirectoryService = (*transport.Client)(nil)
	_ core.Directory              = (*resilience.Directory)(nil)
	_ resilience.DirectoryService = (*resilience.Directory)(nil)
)

// flakyDir fails the first failures Lookup calls with the given error,
// then reports directory.ErrNotFound (terminal, distinguishable).
type flakyDir struct {
	*directory.Service
	failures int
	calls    int
	err      error
}

func (f *flakyDir) Lookup(ctx context.Context, addr directory.Addr) (directory.Record, error) {
	f.calls++
	if f.calls <= f.failures {
		return directory.Record{}, f.err
	}
	return directory.Record{}, directory.ErrNotFound
}

func TestDirectoryRetriesTransientLookupFailures(t *testing.T) {
	reg := obs.NewRegistry()
	pol := &resilience.Policy{MaxAttempts: 4, Metrics: reg, Sleep: noSleep}
	inner := &flakyDir{Service: directory.New(nil, nil), failures: 2, err: storage.ErrNodeDown}
	d := resilience.WrapDirectory(inner, pol)

	_, err := d.Lookup(context.Background(), directory.Addr{Uploader: "t0"})
	if !errors.Is(err, directory.ErrNotFound) {
		t.Fatalf("got %v, want the post-recovery ErrNotFound", err)
	}
	if inner.calls != 3 {
		t.Fatalf("lookup attempts = %d, want 3", inner.calls)
	}
	if v := reg.Counter("rpc_retries_total", "op", "lookup").Value(); v != 2 {
		t.Fatalf("rpc_retries_total{op=lookup} = %d, want 2", v)
	}
}

func TestDirectoryDoesNotRetryProtocolVerdicts(t *testing.T) {
	pol := &resilience.Policy{MaxAttempts: 4, Sleep: noSleep}
	inner := &flakyDir{Service: directory.New(nil, nil), failures: 4, err: directory.ErrConflict}
	d := resilience.WrapDirectory(inner, pol)

	if _, err := d.Lookup(context.Background(), directory.Addr{Uploader: "t0"}); !errors.Is(err, directory.ErrConflict) {
		t.Fatalf("got %v, want ErrConflict", err)
	}
	if inner.calls != 1 {
		t.Fatalf("protocol verdict retried: %d attempts", inner.calls)
	}
}

package transport

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"ipls/internal/cid"
	"ipls/internal/core"
	"ipls/internal/directory"
	"ipls/internal/scalar"
	"ipls/internal/storage"
)

// The TCP client must satisfy the same interfaces as the in-memory
// backends.
var _ core.Directory = (*Client)(nil)

func startServer(t *testing.T, cfg *core.Config) (string, *storage.Network, *directory.Service) {
	t.Helper()
	field := scalar.NewField(cfg.Curve.N)
	netw := storage.NewNetwork(field, 1)
	for _, id := range cfg.StorageNodes {
		netw.AddNode(id)
	}
	params, err := cfg.PedersenParams()
	if err != nil {
		t.Fatal(err)
	}
	dir := directory.New(params, netw)
	cfg.ApplyAssignments(dir)

	srv := NewServer()
	if err := srv.RegisterStorage(netw); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterDirectory(dir); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, netw, dir
}

func dialClient(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestStorageRoundTripOverTCP(t *testing.T) {
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID: "tcp", ModelDim: 8, Partitions: 1,
		Trainers: []string{"t0"}, AggregatorsPerPartition: 1,
		StorageNodes: []string{"s0", "s1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, netw, _ := startServer(t, cfg)
	c := dialClient(t, addr)

	data := []byte("tcp gradient block")
	id, err := c.Put(context.Background(), "s0", data)
	if err != nil {
		t.Fatal(err)
	}
	if !cid.Verify(data, id) {
		t.Fatal("CID mismatch over TCP")
	}
	got, err := c.Get(context.Background(), "s0", id)
	if err != nil || string(got) != string(data) {
		t.Fatalf("Get: %v %q", err, got)
	}
	fetched, err := c.Fetch(context.Background(), id)
	if err != nil || string(fetched) != string(data) {
		t.Fatalf("Fetch: %v", err)
	}
	if _, err := c.Get(context.Background(), "s1", id); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("error identity lost over TCP: %v", err)
	}
	if _, err := c.Get(context.Background(), "ghost", id); !errors.Is(err, storage.ErrUnknownNode) {
		t.Fatalf("unknown-node identity lost: %v", err)
	}
	// The error a scenario partition raises stays recognisable remotely.
	if err := netw.Partition([]string{"s0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(context.Background(), "s0", id); !errors.Is(err, storage.ErrPartitioned) {
		t.Fatalf("partitioned-node identity lost: %v", err)
	}
}

func TestDirectoryErrorsSurviveTCP(t *testing.T) {
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID: "tcp-dir", ModelDim: 8, Partitions: 1,
		Trainers: []string{"t0"}, AggregatorsPerPartition: 1,
		StorageNodes: []string{"s0"}, Verifiable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, _, _ := startServer(t, cfg)
	c := dialClient(t, addr)

	if _, err := c.Update(context.Background(), 0, 0); !errors.Is(err, directory.ErrNotFound) {
		t.Fatalf("ErrNotFound lost: %v", err)
	}
	if _, err := c.Lookup(context.Background(), directory.Addr{Uploader: "x", Type: directory.TypeGradient}); !errors.Is(err, directory.ErrNotFound) {
		t.Fatalf("Lookup ErrNotFound lost: %v", err)
	}
	id, err := c.Put(context.Background(), "s0", []byte("gradient"))
	if err != nil {
		t.Fatal(err)
	}
	err = c.Publish(context.Background(), directory.Record{
		Addr: directory.Addr{Uploader: "t0", Partition: 0, Iter: 0, Type: directory.TypeGradient},
		CID:  id, Node: "s0",
	})
	if !errors.Is(err, directory.ErrMissingCommitment) {
		t.Fatalf("ErrMissingCommitment lost: %v", err)
	}
}

func TestFullIterationOverTCP(t *testing.T) {
	// The whole protocol running through real sockets: trainers and
	// aggregators talk to the storage network and directory over TCP.
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID: "tcp-e2e", ModelDim: 20, Partitions: 2,
		Trainers:                []string{"t0", "t1", "t2", "t3"},
		AggregatorsPerPartition: 2,
		StorageNodes:            []string{"s0", "s1", "s2"},
		ProvidersPerAggregator:  1,
		Verifiable:              true,
		TTrain:                  3 * time.Second,
		TSync:                   3 * time.Second,
		PollInterval:            2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, _, _ := startServer(t, cfg)
	client := dialClient(t, addr)

	sess, err := core.NewSession(cfg, client, client)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	deltas := make(map[string][]float64)
	want := make([]float64, 20)
	for _, tr := range cfg.Trainers {
		d := make([]float64, 20)
		for i := range d {
			d[i] = rng.NormFloat64()
			want[i] += d[i] / 4
		}
		deltas[tr] = d
	}
	res, err := sess.RunIteration(context.Background(), 0, deltas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incomplete) > 0 {
		t.Fatalf("incomplete partitions over TCP: %v", res.Incomplete)
	}
	for i := range want {
		if math.Abs(res.AvgDelta[i]-want[i]) > 1e-6 {
			t.Fatalf("param %d: got %v want %v", i, res.AvgDelta[i], want[i])
		}
	}
}

func TestMaliciousDetectionOverTCP(t *testing.T) {
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID: "tcp-evil", ModelDim: 12, Partitions: 1,
		Trainers:                []string{"t0", "t1"},
		AggregatorsPerPartition: 1,
		StorageNodes:            []string{"s0"},
		Verifiable:              true,
		TTrain:                  2 * time.Second,
		TSync:                   500 * time.Millisecond,
		PollInterval:            2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, _, _ := startServer(t, cfg)
	client := dialClient(t, addr)
	sess, err := core.NewSession(cfg, client, client)
	if err != nil {
		t.Fatal(err)
	}
	deltas := map[string][]float64{
		"t0": make([]float64, 12),
		"t1": make([]float64, 12),
	}
	evil := core.AggregatorID(0, 0)
	res, err := sess.RunIteration(context.Background(), 0, deltas,
		map[string]core.Behavior{evil: core.BehaviorDropGradient})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected() {
		t.Fatal("malicious drop not detected over TCP")
	}
}

// errEcho is a loopback RPC service that raises wireErrors rows on
// demand, so the table is exercised through a real connection.
type errEcho struct{}

func (errEcho) Raise(row *int, reply *ErrReply) error {
	reply.Err = encodeErr(errorsJoin(wireErrors[*row].err))
	return nil
}

// TestErrCodeRoundTrip sends every row of wireErrors across a loopback
// connection: the decoded error must satisfy errors.Is for the row's
// sentinel, so callers branch on it the same way in-process and over TCP.
func TestErrCodeRoundTrip(t *testing.T) {
	srv := NewServer()
	if err := srv.rpcSrv.RegisterName("ErrEcho", errEcho{}); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client := dialClient(t, addr)

	seen := make(map[string]bool)
	for i, row := range wireErrors {
		if seen[row.code] {
			t.Fatalf("wire code %q appears twice", row.code)
		}
		seen[row.code] = true
		var reply ErrReply
		if err := client.call(context.Background(), "ErrEcho.Raise", &i, &reply); err != nil {
			t.Fatal(err)
		}
		got := decodeErr(reply.Err)
		if !errors.Is(got, row.err) {
			t.Errorf("%s: %v crossed the wire as %v", row.code, row.err, got)
		}
	}
	for _, want := range []error{
		storage.ErrPartitioned, storage.ErrNodeDeparted, storage.ErrIntegrity, storage.ErrBackend,
		directory.ErrQuarantined, directory.ErrNotByzantine,
	} {
		if got := decodeErr(encodeErr(want)); !errors.Is(got, want) {
			t.Errorf("%v has no wire code (decoded %v)", want, got)
		}
	}

	if got := decodeErr(encodeErr(nil)); got != nil {
		t.Fatalf("nil round trip gave %v", got)
	}
	other := errors.New("something else happened")
	if got := decodeErr(encodeErr(other)); got == nil || got.Error() != other.Error() {
		t.Fatalf("unknown error round trip gave %v", got)
	}
}

func errorsJoin(err error) error {
	return &wrapErr{err}
}

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "wrapped: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }

func TestServerClose(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial after close should fail")
	}
}

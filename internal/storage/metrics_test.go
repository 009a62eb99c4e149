package storage

import (
	"context"
	"math/big"
	"strings"
	"testing"

	"ipls/internal/cid"
	"ipls/internal/model"
	"ipls/internal/obs"
	"ipls/internal/scalar"
)

func metricsNetwork(t *testing.T, replicas int) (*Network, *obs.Registry) {
	t.Helper()
	field := scalar.NewField(big.NewInt(7919))
	net := NewNetwork(field, replicas)
	reg := obs.NewRegistry()
	net.SetMetrics(reg)
	for _, id := range []string{"s0", "s1", "s2"} {
		net.AddNode(id)
	}
	return net, reg
}

func encodeBlock(t *testing.T, vals ...int64) []byte {
	t.Helper()
	b := model.Block{Values: make([]*big.Int, len(vals))}
	for i, v := range vals {
		b.Values[i] = big.NewInt(v)
	}
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPutGetCountsBytes(t *testing.T) {
	net, reg := metricsNetwork(t, 1)
	data := []byte("hello metrics")
	c, err := net.Put(context.Background(), "s0", data)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("bytes_uploaded_total", "node", "s0").Value(); got != int64(len(data)) {
		t.Fatalf("bytes_uploaded_total = %d, want %d", got, len(data))
	}
	if got := reg.Counter("blocks_stored_total", "node", "s0").Value(); got != 1 {
		t.Fatalf("blocks_stored_total = %d, want 1", got)
	}
	if _, err := net.Get(context.Background(), "s0", c); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Fetch(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("bytes_downloaded_total", "node", "s0").Value(); got != 2*int64(len(data)) {
		t.Fatalf("bytes_downloaded_total = %d, want %d", got, 2*len(data))
	}
}

func TestReplicationCountsReplicas(t *testing.T) {
	net, reg := metricsNetwork(t, 3)
	if _, err := net.Put(context.Background(), "s0", []byte("replicated")); err != nil {
		t.Fatal(err)
	}
	replicated := reg.Counter("blocks_replicated_total", "node", "s1").Value() +
		reg.Counter("blocks_replicated_total", "node", "s2").Value()
	if replicated != 2 {
		t.Fatalf("replica count = %d, want 2", replicated)
	}
	// The primary stored it; replicas don't count as primary stores.
	if got := reg.Counter("blocks_stored_total", "node", "s0").Value(); got != 1 {
		t.Fatalf("blocks_stored_total = %d, want 1", got)
	}
}

func TestMergeGetSavesBytesAndCountsRemoteFetches(t *testing.T) {
	net, reg := metricsNetwork(t, 1)
	b1 := encodeBlock(t, 1, 2)
	b2 := encodeBlock(t, 3, 4)
	c1, err := net.Put(context.Background(), "s0", b1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := net.Put(context.Background(), "s1", b2) // not on s0: forces a remote fetch
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.MergeGet(context.Background(), "s0", []cid.CID{c1, c2})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("remote_fetches_total").Value(); got != 1 {
		t.Fatalf("remote_fetches_total = %d, want 1", got)
	}
	if got := reg.Counter("merge_ops_total").Value(); got != 1 {
		t.Fatalf("merge_ops_total = %d, want 1", got)
	}
	wantSaved := int64(len(b1)+len(b2)) - int64(len(out))
	if wantSaved <= 0 {
		t.Fatalf("test blocks too small to demonstrate savings (in=%d out=%d)", len(b1)+len(b2), len(out))
	}
	if got := reg.Counter("merge_bytes_saved_total").Value(); got != wantSaved {
		t.Fatalf("merge_bytes_saved_total = %d, want %d", got, wantSaved)
	}
}

func TestDefaultRegistryWorksWithoutSetMetrics(t *testing.T) {
	field := scalar.NewField(big.NewInt(7919))
	net := NewNetwork(field, 1)
	net.AddNode("s0")
	if _, err := net.Put(context.Background(), "s0", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if net.reg == nil {
		t.Fatal("network should own a default registry")
	}
	var sb strings.Builder
	if err := net.reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `bytes_uploaded_total{node="s0"} 1`) {
		t.Fatalf("default registry missing upload counter:\n%s", sb.String())
	}
}

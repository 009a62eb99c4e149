package transport

import (
	"context"
	"testing"

	"ipls/internal/core"
	"ipls/internal/directory"
	"ipls/internal/obs"
	"ipls/internal/scalar"
	"ipls/internal/storage"
)

func TestServerAndClientObservability(t *testing.T) {
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID: "tcp-obs", ModelDim: 8, Partitions: 1,
		Trainers: []string{"t0"}, AggregatorsPerPartition: 1,
		StorageNodes: []string{"s0", "s1"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Like startServer, but keeping a handle on the Server for SetMetrics.
	field := scalar.NewField(cfg.Curve.N)
	netw := storage.NewNetwork(field, 1)
	for _, id := range cfg.StorageNodes {
		netw.AddNode(id)
	}
	dir := directory.New(nil, netw)
	cfg.ApplyAssignments(dir)

	srv := NewServer()
	if err := srv.RegisterStorage(netw); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterDirectory(dir); err != nil {
		t.Fatal(err)
	}
	serverReg := obs.NewRegistry()
	col := obs.NewSpanCollector(16)
	srv.SetMetrics(serverReg)
	srv.SetSpans(col)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	c := dialClient(t, addr)
	clientReg := obs.NewRegistry()
	c.SetMetrics(clientReg)

	data := []byte("observable gradient block")
	id, err := c.Put(context.Background(), "s0", data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(context.Background(), "s0", id); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(context.Background(), directory.Record{
		Addr: directory.Addr{Uploader: "t0", Partition: 0, Iter: 0, Type: directory.TypeGradient},
		CID:  id,
		Node: "s0",
	}); err != nil {
		t.Fatal(err)
	}
	// A traced publisher's record carries its span context across the wire.
	upload := obs.SpanContext{Session: "tcp-obs", Iter: 1, SpanID: obs.NewSpanID()}
	if err := c.Publish(context.Background(), directory.Record{
		Addr: directory.Addr{Uploader: "t0", Partition: 0, Iter: 1, Type: directory.TypeGradient},
		CID:  id,
		Node: "s0",
		Span: &upload,
	}); err != nil {
		t.Fatal(err)
	}

	if got := serverReg.Counter("rpc_requests_total", "method", "Storage.Put").Value(); got != 1 {
		t.Fatalf("rpc_requests_total{Storage.Put} = %d, want 1", got)
	}
	if got := serverReg.Counter("rpc_requests_total", "method", "Directory.Publish").Value(); got != 2 {
		t.Fatalf("rpc_requests_total{Directory.Publish} = %d, want 2", got)
	}
	if got := clientReg.Counter("bytes_uploaded_total", "node", "s0").Value(); got != int64(len(data)) {
		t.Fatalf("client bytes_uploaded_total = %d, want %d", got, len(data))
	}
	if got := clientReg.Counter("bytes_downloaded_total", "node", "s0").Value(); got != int64(len(data)) {
		t.Fatalf("client bytes_downloaded_total = %d, want %d", got, len(data))
	}
	// Each accepted publish surfaces as one server-side publish span: the
	// untraced one roots a directory trace, the traced one joins the
	// publisher's trace under its upload span.
	spans := col.Spans()
	if len(spans) != 2 {
		t.Fatalf("publish spans = %+v, want 2", spans)
	}
	for _, s := range spans {
		if s.Name != "publish" || s.Actor != "t0" || s.Attrs["type"] != "gradient" || s.Attrs["node"] != "s0" {
			t.Fatalf("publish span = %+v", s)
		}
		if s.End.Before(s.Start) {
			t.Fatalf("publish span inverted: %+v", s)
		}
	}
	if ctx := spans[0].Context; ctx.Session != "directory" || ctx.Parent != "" || ctx.Iter != 0 {
		t.Fatalf("untraced publish context = %+v", ctx)
	}
	if ctx := spans[1].Context; ctx.Session != "tcp-obs" || ctx.Parent != upload.SpanID || ctx.Iter != 1 {
		t.Fatalf("traced publish context = %+v, want a child of %+v", ctx, upload)
	}
}

func TestUninstrumentedServerAndClientAreNoOps(t *testing.T) {
	cfg, err := core.NewConfig(core.TaskSpec{
		TaskID: "tcp-noobs", ModelDim: 8, Partitions: 1,
		Trainers: []string{"t0"}, AggregatorsPerPartition: 1,
		StorageNodes: []string{"s0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, _, _ := startServer(t, cfg)
	c := dialClient(t, addr)
	if _, err := c.Put(context.Background(), "s0", []byte("no registry attached")); err != nil {
		t.Fatal(err)
	}
}

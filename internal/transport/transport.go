// Package transport exposes the storage network and the directory service
// over TCP using net/rpc, so that trainers, aggregators and the
// bootstrapper can run as separate processes on separate machines. The
// clients implement the same interfaces the in-memory backends do
// (storage.Client and core.Directory), so the protocol engine is oblivious
// to which deployment it runs on.
//
// Canonical protocol errors (not-found, verification-failed, …) are mapped
// to stable wire codes and back, so errors.Is works across the network.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"time"

	"ipls/internal/cid"
	"ipls/internal/directory"
	"ipls/internal/obs"
	"ipls/internal/pedersen"
	"ipls/internal/storage"
)

// Wire error codes. codeNone is success; codeOther prefixes the message of
// an error with no sentinel in wireErrors.
const (
	codeNone  = ""
	codeOther = "other:"
)

// wireErrors pairs each wire code with the sentinel it stands for, so
// errors.Is gives the same verdict on both sides of the connection.
// encodeErr takes the first row the error matches and decodeErr the row
// with the code: a sentinel missing here crosses the wire as an opaque
// "other:" string.
var wireErrors = []struct {
	code string
	err  error
}{
	{"not_found", storage.ErrNotFound},
	{"node_down", storage.ErrNodeDown},
	{"node_departed", storage.ErrNodeDeparted},
	{"partitioned", storage.ErrPartitioned},
	{"unknown_node", storage.ErrUnknownNode},
	{"integrity", storage.ErrIntegrity},
	{"backend", storage.ErrBackend},
	{"dir_not_found", directory.ErrNotFound},
	{"conflict", directory.ErrConflict},
	{"already_final", directory.ErrAlreadyFinal},
	{"verification_failed", directory.ErrVerificationFailed},
	{"missing_commitment", directory.ErrMissingCommitment},
	{"too_late", directory.ErrTooLate},
	{"too_early", directory.ErrTooEarly},
	{"bad_signature", directory.ErrBadSignature},
	{"quarantined", directory.ErrQuarantined},
	{"not_byzantine", directory.ErrNotByzantine},
	{"deadline_exceeded", context.DeadlineExceeded},
	{"canceled", context.Canceled},
}

// encodeErr maps an error to a wire code.
func encodeErr(err error) string {
	if err == nil {
		return codeNone
	}
	for _, row := range wireErrors {
		if errors.Is(err, row.err) {
			return row.code
		}
	}
	return codeOther + err.Error()
}

// decodeErr maps a wire code back to a canonical error.
func decodeErr(code string) error {
	if code == codeNone {
		return nil
	}
	for _, row := range wireErrors {
		if code == row.code {
			return row.err
		}
	}
	return errors.New(strings.TrimPrefix(code, codeOther))
}

// --- Storage RPC service -------------------------------------------------

// StorageService exposes a storage.Network over RPC.
type StorageService struct {
	net *storage.Network
	obs *serverObs
}

// PutArgs/PutReply carry StorageService.Put.
type (
	PutArgs struct {
		Node string
		Data []byte
		// Deadline is the caller's context deadline in UnixNano (0 = none);
		// the server resumes it so cancellation crosses the wire.
		Deadline int64
	}
	PutReply struct {
		CID string
		Err string
	}
)

// Put stores a block.
func (s *StorageService) Put(args *PutArgs, reply *PutReply) error {
	s.obs.count("Storage.Put")
	ctx, cancel := serverCtx(args.Deadline)
	defer cancel()
	c, err := s.net.Put(ctx, args.Node, args.Data)
	reply.CID = string(c)
	reply.Err = encodeErr(err)
	return nil
}

// GetArgs/GetReply carry StorageService.Get and Fetch.
type (
	GetArgs struct {
		Node     string
		CID      string
		Deadline int64
	}
	GetReply struct {
		Data []byte
		Err  string
	}
)

// Get retrieves a block from a specific node.
func (s *StorageService) Get(args *GetArgs, reply *GetReply) error {
	s.obs.count("Storage.Get")
	ctx, cancel := serverCtx(args.Deadline)
	defer cancel()
	data, err := s.net.Get(ctx, args.Node, cid.CID(args.CID))
	reply.Data = data
	reply.Err = encodeErr(err)
	return nil
}

// Fetch retrieves a block from any live node (content routing).
func (s *StorageService) Fetch(args *GetArgs, reply *GetReply) error {
	s.obs.count("Storage.Fetch")
	ctx, cancel := serverCtx(args.Deadline)
	defer cancel()
	data, err := s.net.Fetch(ctx, cid.CID(args.CID))
	reply.Data = data
	reply.Err = encodeErr(err)
	return nil
}

// MergeArgs carries StorageService.MergeGet. Span is the caller's span
// context — the causal envelope that lets the storage node parent its
// merge span under the aggregator's download span across the process
// boundary. The zero value means "untraced".
type MergeArgs struct {
	Node     string
	CIDs     []string
	Span     obs.SpanContext
	Deadline int64
}

// MergeGet performs merge-and-download on the addressed node.
func (s *StorageService) MergeGet(args *MergeArgs, reply *GetReply) error {
	s.obs.count("Storage.MergeGet")
	cids := make([]cid.CID, len(args.CIDs))
	for i, c := range args.CIDs {
		cids[i] = cid.CID(c)
	}
	ctx, cancel := serverCtx(args.Deadline)
	defer cancel()
	data, err := s.net.MergeGetSpan(ctx, args.Node, cids, args.Span)
	reply.Data = data
	reply.Err = encodeErr(err)
	return nil
}

// AnnounceArgs carries one pub/sub publication.
type AnnounceArgs struct {
	Topic string
	From  string
	Data  []byte
}

// Announce publishes a pub/sub message on the storage network's bus.
func (s *StorageService) Announce(args *AnnounceArgs, reply *ErrReply) error {
	s.net.Announce(args.Topic, args.From, args.Data)
	reply.Err = codeNone
	return nil
}

// ListenArgs polls a pub/sub topic from a cursor.
type ListenArgs struct {
	Topic string
	Since int
}

// ListenReply carries retained announcements and the next cursor.
type ListenReply struct {
	Msgs []storage.Announcement
	Next int
}

// Listen returns announcements on a topic from the given cursor.
func (s *StorageService) Listen(args *ListenArgs, reply *ListenReply) error {
	reply.Msgs, reply.Next = s.net.Listen(args.Topic, args.Since)
	return nil
}

// TopicArgs names a pub/sub topic.
type TopicArgs struct {
	Topic string
}

// ForgetTopic drops a topic's retained announcements.
func (s *StorageService) ForgetTopic(args *TopicArgs, reply *ErrReply) error {
	s.net.ForgetTopic(args.Topic)
	reply.Err = codeNone
	return nil
}

// DeleteAllArgs names a block to garbage-collect network-wide.
type DeleteAllArgs struct {
	CID string
}

// DeleteAll removes a block from every storage node.
func (s *StorageService) DeleteAll(args *DeleteAllArgs, reply *ErrReply) error {
	s.net.DeleteAll(cid.CID(args.CID))
	reply.Err = codeNone
	return nil
}

// --- Directory RPC service ----------------------------------------------

// DirectoryService exposes a directory.Service over RPC.
type DirectoryService struct {
	svc *directory.Service
	obs *serverObs
}

// ErrReply is a bare error-code reply.
type ErrReply struct {
	Err string
}

// PublishArgs carries one record plus the caller's deadline.
type PublishArgs struct {
	Rec      directory.Record
	Deadline int64
}

// Publish records an uploaded block.
func (d *DirectoryService) Publish(args *PublishArgs, reply *ErrReply) error {
	d.obs.count("Directory.Publish")
	ctx, cancel := serverCtx(args.Deadline)
	defer cancel()
	start := time.Now()
	err := d.svc.Publish(ctx, args.Rec)
	if err == nil {
		d.obs.published(args.Rec, start)
	}
	reply.Err = encodeErr(err)
	return nil
}

// BatchArgs carries several records for one publish round trip.
type BatchArgs struct {
	Recs     []directory.Record
	Deadline int64
}

// PublishBatch records several uploads in one request.
func (d *DirectoryService) PublishBatch(args *BatchArgs, reply *ErrReply) error {
	d.obs.count("Directory.PublishBatch")
	ctx, cancel := serverCtx(args.Deadline)
	defer cancel()
	start := time.Now()
	err := d.svc.PublishBatch(ctx, args.Recs)
	if err == nil {
		for _, rec := range args.Recs {
			d.obs.published(rec, start)
		}
	}
	reply.Err = encodeErr(err)
	return nil
}

// RecordReply carries a single directory record.
type RecordReply struct {
	Rec directory.Record
	Err string
}

// LookupArgs carries an address lookup plus the caller's deadline.
type LookupArgs struct {
	Addr     directory.Addr
	Deadline int64
}

// Lookup resolves an exact address.
func (d *DirectoryService) Lookup(args *LookupArgs, reply *RecordReply) error {
	ctx, cancel := serverCtx(args.Deadline)
	defer cancel()
	rec, err := d.svc.Lookup(ctx, args.Addr)
	reply.Rec = rec
	reply.Err = encodeErr(err)
	return nil
}

// QueryArgs addresses per-iteration, per-partition queries.
type QueryArgs struct {
	Iter       int
	Partition  int
	Aggregator string
	Deadline   int64
}

// RecordsReply carries a record list.
type RecordsReply struct {
	Recs []directory.Record
}

// GradientsFor lists gradients visible for an aggregator.
func (d *DirectoryService) GradientsFor(args *QueryArgs, reply *RecordsReply) error {
	ctx, cancel := serverCtx(args.Deadline)
	defer cancel()
	reply.Recs = d.svc.GradientsFor(ctx, args.Iter, args.Partition, args.Aggregator)
	return nil
}

// PartialUpdates lists the published partial updates.
func (d *DirectoryService) PartialUpdates(args *QueryArgs, reply *RecordsReply) error {
	ctx, cancel := serverCtx(args.Deadline)
	defer cancel()
	reply.Recs = d.svc.PartialUpdates(ctx, args.Iter, args.Partition)
	return nil
}

// Update returns the accepted global update.
func (d *DirectoryService) Update(args *QueryArgs, reply *RecordReply) error {
	ctx, cancel := serverCtx(args.Deadline)
	defer cancel()
	rec, err := d.svc.Update(ctx, args.Iter, args.Partition)
	reply.Rec = rec
	reply.Err = encodeErr(err)
	return nil
}

// CommitmentReply carries an accumulated commitment.
type CommitmentReply struct {
	Commitment []byte
	Count      int
	Err        string
}

// PartitionAccumulator returns the partition's accumulated commitment.
func (d *DirectoryService) PartitionAccumulator(args *QueryArgs, reply *CommitmentReply) error {
	ctx, cancel := serverCtx(args.Deadline)
	defer cancel()
	acc, err := d.svc.PartitionAccumulator(ctx, args.Iter, args.Partition)
	reply.Commitment = acc
	reply.Err = encodeErr(err)
	return nil
}

// AggregatorAccumulator returns an aggregator's accumulated commitment.
func (d *DirectoryService) AggregatorAccumulator(args *QueryArgs, reply *CommitmentReply) error {
	ctx, cancel := serverCtx(args.Deadline)
	defer cancel()
	acc, n, err := d.svc.AggregatorAccumulator(ctx, args.Iter, args.Partition, args.Aggregator)
	reply.Commitment = acc
	reply.Count = n
	reply.Err = encodeErr(err)
	return nil
}

// VerifyArgs carries a partial-update verification request.
type VerifyArgs struct {
	Iter       int
	Partition  int
	Aggregator string
	Data       []byte
	Deadline   int64
}

// BoolReply carries a verification verdict.
type BoolReply struct {
	OK  bool
	Err string
}

// IterArgs addresses a whole iteration.
type IterArgs struct {
	Iter int
}

// RecordsForIter lists an iteration's gradient and partial records.
func (d *DirectoryService) RecordsForIter(args *IterArgs, reply *RecordsReply) error {
	reply.Recs = d.svc.RecordsForIter(args.Iter)
	return nil
}

// ScheduleArgs carries an iteration's t_train deadline.
type ScheduleArgs struct {
	Iter   int
	TTrain time.Time
}

// SetSchedule registers an iteration's t_train deadline.
func (d *DirectoryService) SetSchedule(args *ScheduleArgs, reply *ErrReply) error {
	d.svc.SetSchedule(args.Iter, args.TTrain)
	reply.Err = codeNone
	return nil
}

// VerifyPartialUpdate checks a partial update against the accumulator.
func (d *DirectoryService) VerifyPartialUpdate(args *VerifyArgs, reply *BoolReply) error {
	ctx, cancel := serverCtx(args.Deadline)
	defer cancel()
	ok, err := d.svc.VerifyPartialUpdate(ctx, args.Iter, args.Partition, args.Aggregator, args.Data)
	reply.OK = ok
	reply.Err = encodeErr(err)
	return nil
}

// --- Server ---------------------------------------------------------------

// Server hosts storage and/or directory services on a TCP listener.
type Server struct {
	rpcSrv *rpc.Server
	ln     net.Listener
	obs    serverObs

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer creates an empty RPC server; register services before Serve.
func NewServer() *Server {
	return &Server{
		rpcSrv: rpc.NewServer(),
		conns:  make(map[net.Conn]struct{}),
	}
}

// RegisterStorage exposes a storage network.
func (s *Server) RegisterStorage(netw *storage.Network) error {
	return s.rpcSrv.RegisterName("Storage", &StorageService{net: netw, obs: &s.obs})
}

// RegisterDirectory exposes a directory service.
func (s *Server) RegisterDirectory(svc *directory.Service) error {
	return s.rpcSrv.RegisterName("Directory", &DirectoryService{svc: svc, obs: &s.obs})
}

// Listen binds the server to an address ("127.0.0.1:0" for an ephemeral
// port) and starts accepting connections in the background.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.rpcSrv.ServeConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes open connections and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// serverCtx resumes a caller's context on the server side of an RPC: a
// non-zero deadline (UnixNano) becomes a context deadline, so work started
// on behalf of a caller whose deadline already expired fails immediately
// instead of running to completion for nobody.
func serverCtx(deadline int64) (context.Context, context.CancelFunc) {
	if deadline == 0 {
		return context.Background(), func() {}
	}
	return context.WithDeadline(context.Background(), time.Unix(0, deadline))
}

// wireDeadline flattens a context's deadline for an RPC args struct
// (0 = no deadline).
func wireDeadline(ctx context.Context) int64 {
	if d, ok := ctx.Deadline(); ok {
		return d.UnixNano()
	}
	return 0
}

// --- Clients ---------------------------------------------------------------

// Client is a TCP connection to a transport server, usable as both a
// storage client and a directory client.
type Client struct {
	rpc     *rpc.Client
	metrics clientMetrics
}

var _ storage.Client = (*Client)(nil)

// Dial connects to a transport server.
func Dial(addr string) (*Client, error) {
	c, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return &Client{rpc: c}, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.rpc.Close() }

// call issues an RPC honoring the caller's context: cancellation or an
// expired deadline abandons the wait (the reply, if it ever arrives, is
// discarded by net/rpc). The deadline also rides the args when the struct
// carries one, so the server stops working too.
func (c *Client) call(ctx context.Context, method string, args, reply any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	done := c.rpc.Go(method, args, reply, make(chan *rpc.Call, 1)).Done
	select {
	case <-ctx.Done():
		return ctx.Err()
	case call := <-done:
		return call.Error
	}
}

// Put stores a block on the addressed node.
func (c *Client) Put(ctx context.Context, nodeID string, data []byte) (cid.CID, error) {
	var reply PutReply
	if err := c.call(ctx, "Storage.Put", &PutArgs{Node: nodeID, Data: data, Deadline: wireDeadline(ctx)}, &reply); err != nil {
		return "", err
	}
	if reply.Err == codeNone {
		c.metrics.uploaded(nodeID, len(data))
	}
	return cid.CID(reply.CID), decodeErr(reply.Err)
}

// Get retrieves a block from the addressed node.
func (c *Client) Get(ctx context.Context, nodeID string, id cid.CID) ([]byte, error) {
	var reply GetReply
	if err := c.call(ctx, "Storage.Get", &GetArgs{Node: nodeID, CID: string(id), Deadline: wireDeadline(ctx)}, &reply); err != nil {
		return nil, err
	}
	c.metrics.downloaded(nodeID, len(reply.Data))
	return reply.Data, decodeErr(reply.Err)
}

// Fetch retrieves a block from any live node.
func (c *Client) Fetch(ctx context.Context, id cid.CID) ([]byte, error) {
	var reply GetReply
	if err := c.call(ctx, "Storage.Fetch", &GetArgs{CID: string(id), Deadline: wireDeadline(ctx)}, &reply); err != nil {
		return nil, err
	}
	c.metrics.downloaded("*", len(reply.Data))
	return reply.Data, decodeErr(reply.Err)
}

// MergeGet requests provider-side pre-aggregation.
func (c *Client) MergeGet(ctx context.Context, nodeID string, cs []cid.CID) ([]byte, error) {
	return c.MergeGetSpan(ctx, nodeID, cs, obs.SpanContext{})
}

// MergeGetSpan is MergeGet carrying the caller's span context over the
// wire, so the storage node's merge span lands in the caller's trace.
func (c *Client) MergeGetSpan(ctx context.Context, nodeID string, cs []cid.CID, parent obs.SpanContext) ([]byte, error) {
	ids := make([]string, len(cs))
	for i, x := range cs {
		ids[i] = string(x)
	}
	var reply GetReply
	if err := c.call(ctx, "Storage.MergeGet", &MergeArgs{Node: nodeID, CIDs: ids, Span: parent, Deadline: wireDeadline(ctx)}, &reply); err != nil {
		return nil, err
	}
	c.metrics.downloaded(nodeID, len(reply.Data))
	return reply.Data, decodeErr(reply.Err)
}

// Publish records an uploaded block with the directory.
func (c *Client) Publish(ctx context.Context, rec directory.Record) error {
	var reply ErrReply
	if err := c.call(ctx, "Directory.Publish", &PublishArgs{Rec: rec, Deadline: wireDeadline(ctx)}, &reply); err != nil {
		return err
	}
	return decodeErr(reply.Err)
}

// PublishBatch records several uploads in one round trip.
func (c *Client) PublishBatch(ctx context.Context, recs []directory.Record) error {
	var reply ErrReply
	if err := c.call(ctx, "Directory.PublishBatch", &BatchArgs{Recs: recs, Deadline: wireDeadline(ctx)}, &reply); err != nil {
		return err
	}
	return decodeErr(reply.Err)
}

// Lookup resolves an exact address.
func (c *Client) Lookup(ctx context.Context, addr directory.Addr) (directory.Record, error) {
	var reply RecordReply
	if err := c.call(ctx, "Directory.Lookup", &LookupArgs{Addr: addr, Deadline: wireDeadline(ctx)}, &reply); err != nil {
		return directory.Record{}, err
	}
	return reply.Rec, decodeErr(reply.Err)
}

// GradientsFor lists gradient records for an aggregator. RPC failures
// surface as an empty list, which the protocol treats as "nothing yet".
func (c *Client) GradientsFor(ctx context.Context, iter, partition int, aggregator string) []directory.Record {
	var reply RecordsReply
	if err := c.call(ctx, "Directory.GradientsFor",
		&QueryArgs{Iter: iter, Partition: partition, Aggregator: aggregator, Deadline: wireDeadline(ctx)}, &reply); err != nil {
		return nil
	}
	return reply.Recs
}

// PartialUpdates lists published partial updates.
func (c *Client) PartialUpdates(ctx context.Context, iter, partition int) []directory.Record {
	var reply RecordsReply
	if err := c.call(ctx, "Directory.PartialUpdates",
		&QueryArgs{Iter: iter, Partition: partition, Deadline: wireDeadline(ctx)}, &reply); err != nil {
		return nil
	}
	return reply.Recs
}

// Update returns the accepted global update.
func (c *Client) Update(ctx context.Context, iter, partition int) (directory.Record, error) {
	var reply RecordReply
	if err := c.call(ctx, "Directory.Update",
		&QueryArgs{Iter: iter, Partition: partition, Deadline: wireDeadline(ctx)}, &reply); err != nil {
		return directory.Record{}, err
	}
	return reply.Rec, decodeErr(reply.Err)
}

// PartitionAccumulator returns the accumulated partition commitment.
func (c *Client) PartitionAccumulator(ctx context.Context, iter, partition int) (pedersen.Commitment, error) {
	var reply CommitmentReply
	if err := c.call(ctx, "Directory.PartitionAccumulator",
		&QueryArgs{Iter: iter, Partition: partition, Deadline: wireDeadline(ctx)}, &reply); err != nil {
		return nil, err
	}
	return pedersen.Commitment(reply.Commitment), decodeErr(reply.Err)
}

// AggregatorAccumulator returns an aggregator's accumulated commitment.
func (c *Client) AggregatorAccumulator(ctx context.Context, iter, partition int, aggregator string) (pedersen.Commitment, int, error) {
	var reply CommitmentReply
	if err := c.call(ctx, "Directory.AggregatorAccumulator",
		&QueryArgs{Iter: iter, Partition: partition, Aggregator: aggregator, Deadline: wireDeadline(ctx)}, &reply); err != nil {
		return nil, 0, err
	}
	return pedersen.Commitment(reply.Commitment), reply.Count, decodeErr(reply.Err)
}

// Announce publishes a pub/sub message. Failures are swallowed: pub/sub is
// a discovery hint, and the directory remains the source of truth.
func (c *Client) Announce(topic, from string, data []byte) {
	var reply ErrReply
	_ = c.rpc.Call("Storage.Announce", &AnnounceArgs{Topic: topic, From: from, Data: data}, &reply)
}

// Listen polls a pub/sub topic from a cursor. On RPC failure it reports no
// messages and leaves the cursor unchanged.
func (c *Client) Listen(topic string, since int) ([]storage.Announcement, int) {
	var reply ListenReply
	if err := c.rpc.Call("Storage.Listen", &ListenArgs{Topic: topic, Since: since}, &reply); err != nil {
		return nil, since
	}
	return reply.Msgs, reply.Next
}

// ForgetTopic drops a topic's retained announcements.
func (c *Client) ForgetTopic(topic string) {
	var reply ErrReply
	_ = c.rpc.Call("Storage.ForgetTopic", &TopicArgs{Topic: topic}, &reply)
}

// DeleteAll garbage-collects a block from every storage node.
func (c *Client) DeleteAll(id cid.CID) {
	var reply ErrReply
	_ = c.rpc.Call("Storage.DeleteAll", &DeleteAllArgs{CID: string(id)}, &reply)
}

// RecordsForIter lists an iteration's gradient and partial records.
func (c *Client) RecordsForIter(iter int) []directory.Record {
	var reply RecordsReply
	if err := c.rpc.Call("Directory.RecordsForIter", &IterArgs{Iter: iter}, &reply); err != nil {
		return nil
	}
	return reply.Recs
}

// SetSchedule announces an iteration's t_train deadline to the directory.
// RPC failures are swallowed: the schedule is an optimization, and the
// protocol remains safe without it (the directory just cannot reject late
// gradients).
func (c *Client) SetSchedule(iter int, tTrain time.Time) {
	var reply ErrReply
	_ = c.rpc.Call("Directory.SetSchedule", &ScheduleArgs{Iter: iter, TTrain: tTrain}, &reply)
}

// VerifyPartialUpdate checks a partial update against the accumulator.
func (c *Client) VerifyPartialUpdate(ctx context.Context, iter, partition int, aggregator string, data []byte) (bool, error) {
	var reply BoolReply
	if err := c.call(ctx, "Directory.VerifyPartialUpdate",
		&VerifyArgs{Iter: iter, Partition: partition, Aggregator: aggregator, Data: data, Deadline: wireDeadline(ctx)}, &reply); err != nil {
		return false, err
	}
	return reply.OK, decodeErr(reply.Err)
}

package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"xseed"
	"xseed/api"
	"xseed/internal/wire"
)

// XTP is the binary-transport backend of the SDK: a pipelining client for
// the xtp protocol (docs/PROTOCOL.md) an xseedd serves on its -xtp
// listener. Like Client it implements xseed.Estimator when bound to a
// synopsis, so an optimizer switches transports without touching
// estimation code:
//
//	x, _ := client.DialXTP("10.0.0.7:9090", client.WithXTPSynopsis("auction"))
//	defer x.Close()
//	res, err := x.EstimateBatch(ctx, []string{"//open_auction[bidder]/seller"})
//
// Concurrent calls coalesce onto one multiplexed connection: each request
// carries a correlation ID, responses are matched back as they arrive, and
// nothing waits for a stranger's round trip. Canceling one call's context
// abandons that call only — the connection (and everyone else's in-flight
// requests) survives. A broken connection fails in-flight calls with
// api.CodeUnavailable and the next call redials.
//
// Feedback is fire-and-forget: Feedback returns once the record is on the
// wire, acks are consumed in the background against a bounded in-flight
// window, and ack errors surface on Flush (or the final Close). Estimates,
// by contrast, always wait for their response.
type XTP struct {
	addr        string
	synopsis    string
	token       string
	dialTimeout time.Duration
	window      int

	// shared, when non-nil, is the root *XTP owning the connection and the
	// feedback-error slot; copies made by Synopsis delegate to it so all
	// bindings multiplex onto one connection.
	shared *XTP

	mu     sync.Mutex
	conn   *xconn // current connection, nil until first use or after failure
	closed bool

	fbMu  sync.Mutex
	fbErr error // first unreported feedback ack failure
}

// XTPOption configures a DialXTP client.
type XTPOption func(*XTP)

// WithXTPSynopsis binds the client to a synopsis name, enabling the
// xseed.Estimator methods (EstimateBatch, Feedback).
func WithXTPSynopsis(name string) XTPOption { return func(x *XTP) { x.synopsis = name } }

// WithXTPToken authenticates every connection (including redials) with the
// bearer token during dial: an AuthReq frame binds the connection to the
// token's tenant before any request rides it. An unknown token — or a
// pre-tenancy server, which closes on the unfamiliar frame — fails the
// dial; there is no silent fallback to unauthenticated operation.
func WithXTPToken(token string) XTPOption { return func(x *XTP) { x.token = token } }

// WithXTPDialTimeout bounds each dial + handshake (default 10s).
func WithXTPDialTimeout(d time.Duration) XTPOption { return func(x *XTP) { x.dialTimeout = d } }

// WithFeedbackWindow sets how many feedback records may be on the wire
// awaiting acks before Feedback blocks (default 128).
func WithFeedbackWindow(n int) XTPOption {
	return func(x *XTP) {
		if n > 0 {
			x.window = n
		}
	}
}

// DialXTP connects to an xseedd xtp listener ("host:port") and completes
// the protocol handshake. The returned client is safe for concurrent use;
// it holds one connection and redials transparently after failures.
func DialXTP(addr string, opts ...XTPOption) (*XTP, error) {
	x := &XTP{addr: addr, dialTimeout: 10 * time.Second, window: 128}
	for _, o := range opts {
		o(x)
	}
	// Dial eagerly so an unreachable or non-xtp endpoint fails here, at
	// construction, not on the first estimate deep inside an optimizer.
	cn, err := x.dial()
	if err != nil {
		return nil, err
	}
	x.conn = cn
	return x, nil
}

// Synopsis returns a view of the client bound to the named synopsis; the
// view shares the underlying connection and implements xseed.Estimator.
func (x *XTP) Synopsis(name string) *XTP {
	return &XTP{addr: x.addr, synopsis: name, token: x.token,
		dialTimeout: x.dialTimeout, window: x.window, shared: x.sharedSelf()}
}

// sharedSelf resolves the root client owning the connection (views made
// by Synopsis delegate connection management to it).
func (x *XTP) sharedSelf() *XTP {
	if x.shared != nil {
		return x.shared
	}
	return x
}

// Close closes the connection and fails any in-flight calls. It returns
// the first unreported feedback ack error, if any — the last chance to
// observe fire-and-forget failures.
func (x *XTP) Close() error {
	root := x.sharedSelf()
	root.mu.Lock()
	root.closed = true
	cn := root.conn
	root.conn = nil
	root.mu.Unlock()
	if cn != nil {
		cn.close(api.Errorf(api.CodeUnavailable, "client closed"))
	}
	return x.takeFeedbackErr()
}

// getConn returns the live connection, dialing if needed.
func (x *XTP) getConn() (*xconn, error) {
	root := x.sharedSelf()
	root.mu.Lock()
	defer root.mu.Unlock()
	if root.closed {
		return nil, api.Errorf(api.CodeUnavailable, "client closed")
	}
	if root.conn != nil && !root.conn.dead() {
		return root.conn, nil
	}
	cn, err := root.dial()
	if err != nil {
		return nil, err
	}
	root.conn = cn
	return cn, nil
}

// dial opens and handshakes one connection.
func (x *XTP) dial() (*xconn, error) {
	c, err := net.DialTimeout("tcp", x.addr, x.dialTimeout)
	if err != nil {
		return nil, api.Errorf(api.CodeUnavailable, "xtp dial %s: %s", x.addr, err)
	}
	c.SetDeadline(time.Now().Add(x.dialTimeout))
	if err := wire.WriteHandshake(c, wire.Version); err != nil {
		c.Close()
		return nil, api.Errorf(api.CodeUnavailable, "xtp handshake write: %s", err)
	}
	ver, err := wire.ReadHandshake(c)
	if err != nil {
		c.Close()
		return nil, api.Errorf(api.CodeUnavailable, "xtp handshake: %s", err)
	}
	if ver != wire.Version {
		c.Close()
		return nil, api.Errorf(api.CodeUnavailable,
			"xtp version mismatch: server speaks %d, client speaks %d", ver, wire.Version)
	}
	cn := &xconn{
		c:        c,
		owner:    x.sharedSelf(),
		w:        wire.NewWriter(c),
		r:        wire.NewReader(c),
		pending:  make(map[uint64]*xcall),
		nextCorr: 1, // corr 1 is reserved for the dial-time AuthReq
		fbTokens: make(chan struct{}, x.window),
		closedCh: make(chan struct{}),
	}
	if x.token != "" {
		if err := cn.authenticate(x.token); err != nil {
			c.Close()
			return nil, err
		}
	}
	c.SetDeadline(time.Time{})
	go cn.readLoop()
	return cn, nil
}

// authenticate binds the freshly dialed connection to the token's tenant,
// synchronously, before the read loop starts: one AuthReq, one response.
// Failure is a dial failure — notably including an old server that closes
// on the unknown frame type, which must never degrade silently into
// unauthenticated operation (docs/PROTOCOL.md §4.9).
func (cn *xconn) authenticate(token string) error {
	buf := wire.GetBuf()
	*buf = wire.AppendAuthReq(*buf, token)
	err := cn.w.WriteFrame(wire.FrameAuthReq, 1, *buf)
	wire.PutBuf(buf)
	if err != nil {
		return api.Errorf(api.CodeUnavailable, "xtp auth write: %s", err)
	}
	f, err := cn.r.ReadFrame()
	if err != nil {
		return api.Errorf(api.CodeUnauthorized,
			"xtp auth: connection closed before AuthResp (server may predate authentication): %s", err)
	}
	switch f.Type {
	case wire.FrameAuthResp:
		if _, err := wire.DecodeAuthResp(f.Payload); err != nil {
			return api.Errorf(api.CodeUnavailable, "xtp auth response decode: %s", err)
		}
		return nil
	case wire.FrameError:
		ae, err := wire.DecodeError(f.Payload)
		if err != nil {
			return api.Errorf(api.CodeUnavailable, "xtp auth error decode: %s", err)
		}
		return ae
	default:
		return api.Errorf(api.CodeUnavailable, "xtp auth: unexpected %s response", f.Type)
	}
}

// retire clears the current connection if it is cn (so the next call
// redials) — called by a conn's read loop when the conn dies.
func (x *XTP) retire(cn *xconn) {
	x.mu.Lock()
	if x.conn == cn {
		x.conn = nil
	}
	x.mu.Unlock()
}

// recordFeedbackErr keeps the first unreported ack failure for Flush/Close.
func (x *XTP) recordFeedbackErr(err error) {
	root := x.sharedSelf()
	root.fbMu.Lock()
	if root.fbErr == nil {
		root.fbErr = err
	}
	root.fbMu.Unlock()
}

func (x *XTP) takeFeedbackErr() error {
	root := x.sharedSelf()
	root.fbMu.Lock()
	err := root.fbErr
	root.fbErr = nil
	root.fbMu.Unlock()
	return err
}

// EstimateBatch implements xseed.Estimator: one EstimateReq frame, one
// response, per-query result-or-error in request order — the same
// partial-success contract as the HTTP backend and the embedded one.
func (x *XTP) EstimateBatch(ctx context.Context, queries []string) ([]xseed.Result, error) {
	if x.synopsis == "" {
		return nil, fmt.Errorf("client: no synopsis bound (use Synopsis(name) or WithXTPSynopsis)")
	}
	// A context already done never sends: the select below would race its
	// Done against a fast response and could report success.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cn, err := x.getConn()
	if err != nil {
		return nil, err
	}
	call := cn.register(callEstimate)
	buf := wire.GetBuf()
	*buf = wire.AppendEstimateReq(*buf, x.synopsis, queries, false)
	err = cn.writeFrame(wire.FrameEstimateReq, call.corr, *buf)
	wire.PutBuf(buf)
	if err != nil {
		cn.unregister(call.corr)
		cn.close(api.Errorf(api.CodeUnavailable, "xtp write: %s", err))
		return nil, api.Errorf(api.CodeUnavailable, "xtp write: %s", err)
	}
	select {
	case <-ctx.Done():
		// Abandon this call only: the response, when it arrives, finds no
		// pending entry and is dropped; the connection and every other
		// in-flight call continue untouched.
		cn.unregister(call.corr)
		return nil, ctx.Err()
	case res := <-call.ch:
		if res.err != nil {
			return nil, res.err
		}
		items, err := wire.DecodeEstimateResp(res.payload)
		if err != nil {
			cn.close(api.Errorf(api.CodeUnavailable, "xtp response decode: %s", err))
			return nil, err
		}
		return resultsFromItems(items, len(queries))
	}
}

// Feedback implements xseed.Estimator, fire-and-forget: it returns once
// the record is written and a window slot is held; the ack is consumed in
// the background. A full window (window size in-flight unacked records)
// blocks until acks drain — that backpressure, not an unbounded queue, is
// what keeps a feedback firehose from overrunning the server. Ack errors
// (unknown synopsis, parse failure) surface on Flush or Close.
func (x *XTP) Feedback(ctx context.Context, query string, actual float64) error {
	if x.synopsis == "" {
		return fmt.Errorf("client: no synopsis bound (use Synopsis(name) or WithXTPSynopsis)")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	cn, err := x.getConn()
	if err != nil {
		return err
	}
	select {
	case cn.fbTokens <- struct{}{}: // acquire a window slot; the ack returns it
	case <-ctx.Done():
		return ctx.Err()
	case <-cn.closedCh:
		return cn.err()
	}
	call := cn.register(callFeedback)
	buf := wire.GetBuf()
	*buf = wire.AppendFeedbackReq(*buf, x.synopsis, query, actual)
	err = cn.writeFrame(wire.FrameFeedbackReq, call.corr, *buf)
	wire.PutBuf(buf)
	if err != nil {
		cn.unregister(call.corr)
		<-cn.fbTokens
		cn.close(api.Errorf(api.CodeUnavailable, "xtp write: %s", err))
		return api.Errorf(api.CodeUnavailable, "xtp write: %s", err)
	}
	return nil
}

// FeedbackBatch implements xseed.Estimator: one FeedbackBatchReq frame
// carrying every observation, one ack with per-item outcomes in request
// order. Unlike single-event Feedback it is synchronous — the ack already
// rode one coalesced publication and one group-commit flush server-side, so
// there is no window to pipeline through — and its per-item errors return
// directly instead of surfacing on Flush.
func (x *XTP) FeedbackBatch(ctx context.Context, items []xseed.FeedbackObs) ([]error, error) {
	if x.synopsis == "" {
		return nil, fmt.Errorf("client: no synopsis bound (use Synopsis(name) or WithXTPSynopsis)")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cn, err := x.getConn()
	if err != nil {
		return nil, err
	}
	wi := make([]api.FeedbackItem, len(items))
	for i, it := range items {
		wi[i] = api.FeedbackItem{Query: it.Query, Actual: it.Actual}
	}
	call := cn.register(callEstimate)
	buf := wire.GetBuf()
	*buf = wire.AppendFeedbackBatchReq(*buf, x.synopsis, wi)
	err = cn.writeFrame(wire.FrameFeedbackBatchReq, call.corr, *buf)
	wire.PutBuf(buf)
	if err != nil {
		cn.unregister(call.corr)
		cn.close(api.Errorf(api.CodeUnavailable, "xtp write: %s", err))
		return nil, api.Errorf(api.CodeUnavailable, "xtp write: %s", err)
	}
	select {
	case <-ctx.Done():
		cn.unregister(call.corr)
		return nil, ctx.Err()
	case res := <-call.ch:
		if res.err != nil {
			return nil, res.err
		}
		aerrs, err := wire.DecodeFeedbackBatchAck(res.payload)
		if err != nil {
			cn.close(api.Errorf(api.CodeUnavailable, "xtp response decode: %s", err))
			return nil, err
		}
		if len(aerrs) != len(items) {
			return nil, fmt.Errorf("client: server returned %d results for %d feedback items", len(aerrs), len(items))
		}
		errs := make([]error, len(items))
		for i, ae := range aerrs {
			if ae != nil {
				errs[i] = ae
			}
		}
		return errs, nil
	}
}

// Flush blocks until every in-flight feedback record has been acked (or
// the connection died), then reports and clears the first ack failure
// observed since the last Flush. Use it as a barrier before trusting that
// feedback landed — e.g. before reading accuracy stats.
func (x *XTP) Flush(ctx context.Context) error {
	root := x.sharedSelf()
	root.mu.Lock()
	cn := root.conn
	root.mu.Unlock()
	if cn != nil {
		// Acquire the entire window: possible only once every in-flight
		// slot has been returned by its ack, i.e. the pipeline is empty.
		held := 0
	acquire:
		for held < cap(cn.fbTokens) {
			select {
			case cn.fbTokens <- struct{}{}:
				held++
			case <-ctx.Done():
				for ; held > 0; held-- {
					<-cn.fbTokens
				}
				return ctx.Err()
			case <-cn.closedCh:
				break acquire // conn died; its readLoop settled all slots
			}
		}
		for ; held > 0; held-- {
			<-cn.fbTokens
		}
	}
	return x.takeFeedbackErr()
}

// Ping round-trips a liveness probe (the xtp analogue of Client.Health).
func (x *XTP) Ping(ctx context.Context) error {
	cn, err := x.getConn()
	if err != nil {
		return err
	}
	call := cn.register(callEstimate)
	if err := cn.writeFrame(wire.FramePing, call.corr, nil); err != nil {
		cn.unregister(call.corr)
		cn.close(api.Errorf(api.CodeUnavailable, "xtp write: %s", err))
		return api.Errorf(api.CodeUnavailable, "xtp write: %s", err)
	}
	select {
	case <-ctx.Done():
		cn.unregister(call.corr)
		return ctx.Err()
	case res := <-call.ch:
		return res.err
	}
}

// Stats fetches server-wide stats over the binary transport (the payload
// rides as JSON — stats is a cold path; see docs/PROTOCOL.md).
func (x *XTP) Stats(ctx context.Context) (api.Stats, error) {
	var st api.Stats
	cn, err := x.getConn()
	if err != nil {
		return st, err
	}
	call := cn.register(callEstimate)
	if err := cn.writeFrame(wire.FrameStatsReq, call.corr, nil); err != nil {
		cn.unregister(call.corr)
		cn.close(api.Errorf(api.CodeUnavailable, "xtp write: %s", err))
		return st, api.Errorf(api.CodeUnavailable, "xtp write: %s", err)
	}
	select {
	case <-ctx.Done():
		cn.unregister(call.corr)
		return st, ctx.Err()
	case res := <-call.ch:
		if res.err != nil {
			return st, res.err
		}
		if err := json.Unmarshal(res.payload, &st); err != nil {
			return st, fmt.Errorf("client: decode stats: %w", err)
		}
		return st, nil
	}
}

// callKind distinguishes response-bearing calls from windowed feedbacks.
type callKind int

const (
	callEstimate callKind = iota // waiter on call.ch (estimate/ping/stats)
	callFeedback                 // acked in the background, returns a window slot
)

// xresult is a demultiplexed response: the frame payload (copied out of
// the reader's scratch) or the call's terminal error.
type xresult struct {
	payload []byte
	err     error
}

// xcall is one in-flight request.
type xcall struct {
	corr uint64
	kind callKind
	ch   chan xresult // buffered(1); unused for callFeedback
}

// xconn is one multiplexed client connection: a writer shared under wmu
// and a reader goroutine that routes responses by correlation ID.
type xconn struct {
	c     net.Conn
	owner *XTP

	wmu sync.Mutex
	w   *wire.Writer

	// r is created at dial (the dial-time auth exchange shares its buffer
	// with the read loop) and owned by readLoop thereafter.
	r *wire.Reader

	mu       sync.Mutex
	pending  map[uint64]*xcall
	nextCorr uint64
	failure  error

	fbTokens chan struct{} // counting semaphore: in-flight unacked feedbacks

	closeOnce sync.Once
	closedCh  chan struct{}
}

func (cn *xconn) register(kind callKind) *xcall {
	cn.mu.Lock()
	cn.nextCorr++
	call := &xcall{corr: cn.nextCorr, kind: kind}
	if kind != callFeedback {
		call.ch = make(chan xresult, 1)
	}
	cn.pending[call.corr] = call
	cn.mu.Unlock()
	return call
}

func (cn *xconn) unregister(corr uint64) {
	cn.mu.Lock()
	delete(cn.pending, corr)
	cn.mu.Unlock()
}

func (cn *xconn) writeFrame(t wire.FrameType, corr uint64, payload []byte) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	return cn.w.WriteFrame(t, corr, payload)
}

func (cn *xconn) dead() bool {
	select {
	case <-cn.closedCh:
		return true
	default:
		return false
	}
}

func (cn *xconn) err() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.failure != nil {
		return cn.failure
	}
	return api.Errorf(api.CodeUnavailable, "xtp connection closed")
}

// close tears the connection down once: fails every pending call, settles
// every in-flight feedback slot, and retires the conn from its owner.
func (cn *xconn) close(cause *api.Error) {
	cn.closeOnce.Do(func() {
		cn.mu.Lock()
		cn.failure = cause
		pending := cn.pending
		cn.pending = make(map[uint64]*xcall)
		cn.mu.Unlock()
		cn.c.Close()
		close(cn.closedCh)
		for _, call := range pending {
			switch call.kind {
			case callFeedback:
				<-cn.fbTokens // settle the window slot
				cn.owner.recordFeedbackErr(cause)
			default:
				call.ch <- xresult{err: cause}
			}
		}
		cn.owner.retire(cn)
	})
}

// readLoop demultiplexes responses until the connection dies. It owns the
// wire.Reader, whose payload buffer it copies before handing a response to
// a waiter.
func (cn *xconn) readLoop() {
	r := cn.r
	for {
		f, err := r.ReadFrame()
		if err != nil {
			cn.close(api.Errorf(api.CodeUnavailable, "xtp connection lost: %s", err))
			return
		}
		switch f.Type {
		case wire.FrameGoaway:
			// Server is draining: route new calls to a fresh connection,
			// keep reading — in-flight responses still arrive here.
			cn.owner.retire(cn)
			continue
		}
		cn.mu.Lock()
		call, ok := cn.pending[f.Corr]
		if ok {
			delete(cn.pending, f.Corr)
		}
		cn.mu.Unlock()
		if !ok {
			continue // canceled call's late response; drop it
		}
		switch call.kind {
		case callFeedback:
			cn.settleFeedback(f)
		default:
			cn.settleCall(call, f)
		}
	}
}

// settleFeedback consumes one FeedbackAck: record any error for Flush,
// then return the window slot — in that order, because Flush reads a full
// window as "every ack settled" and takes the error right after.
func (cn *xconn) settleFeedback(f wire.Frame) {
	switch f.Type {
	case wire.FrameFeedbackAck:
		ae, err := wire.DecodeFeedbackAck(f.Payload)
		switch {
		case err != nil:
			cn.owner.recordFeedbackErr(err)
		case ae != nil:
			cn.owner.recordFeedbackErr(ae)
		}
	case wire.FrameError:
		if ae, err := wire.DecodeError(f.Payload); err == nil {
			cn.owner.recordFeedbackErr(ae)
		} else {
			cn.owner.recordFeedbackErr(err)
		}
	default:
		cn.owner.recordFeedbackErr(fmt.Errorf("client: unexpected %s ack for feedback", f.Type))
	}
	<-cn.fbTokens
}

// settleCall delivers a response to its waiter, translating Error frames
// into typed errors and copying the payload out of the reader's scratch.
func (cn *xconn) settleCall(call *xcall, f wire.Frame) {
	switch f.Type {
	case wire.FrameError:
		ae, err := wire.DecodeError(f.Payload)
		if err != nil {
			call.ch <- xresult{err: err}
			return
		}
		call.ch <- xresult{err: ae}
	default:
		payload := make([]byte, len(f.Payload))
		copy(payload, f.Payload)
		call.ch <- xresult{payload: payload}
	}
}

var _ xseed.Estimator = (*XTP)(nil)

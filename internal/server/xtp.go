package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"xseed/api"
	"xseed/internal/obs"
	"xseed/internal/wire"
)

// xtpHandshakeTimeout bounds how long an accepted connection may take to
// complete the 4-byte handshake before the server drops it — a slot held
// open by a port scanner costs one goroutine for at most this long.
const xtpHandshakeTimeout = 10 * time.Second

// XTPOptions configures an XTP listener.
type XTPOptions struct {
	// Logger receives connection lifecycle and protocol-error records.
	// Nil discards.
	Logger *slog.Logger

	// Metrics receives the xseed_xtp_* families. Nil disables them.
	Metrics *obs.Registry
}

// XTP serves the xtp binary protocol (docs/PROTOCOL.md) over TCP against
// a registry — the same registry, estimate cache, and error taxonomy the
// HTTP JSON API serves, minus the HTTP and JSON. Requests multiplex over
// each connection by correlation ID, so one pipelining client drives the
// registry from many concurrent calls on a single socket.
type XTP struct {
	reg *Registry
	ops *ops // the request policy, shared with HTTP when under a Server
	log *slog.Logger
	m   *xtpMetrics

	// baseCtx parents every request handler; cancel aborts in-flight work
	// when a drain deadline expires.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*xtpConn]struct{}
	closed bool

	wg sync.WaitGroup // one per live connection handler
}

// NewXTP builds an XTP listener over the registry. Serve it on as many
// listeners as needed; Shutdown drains them all.
func NewXTP(reg *Registry, opts XTPOptions) *XTP {
	lg := opts.Logger
	if lg == nil {
		lg = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &XTP{
		reg:     reg,
		ops:     &ops{reg: reg},
		log:     lg,
		m:       newXTPMetrics(opts.Metrics),
		baseCtx: ctx,
		cancel:  cancel,
		lns:     make(map[net.Listener]struct{}),
		conns:   make(map[*xtpConn]struct{}),
	}
}

// AttachCluster installs the cluster hooks: the per-key ownership check
// (moved errors over xtp mirror the HTTP 421s) and the RingReq answer.
// Call before Serve.
func (x *XTP) AttachCluster(ownerCheck func(string) *api.Error, ringJSON func() ([]byte, bool)) {
	x.ops.owner = ownerCheck
	x.ops.ringJSON = ringJSON
}

// Serve accepts connections on ln until Shutdown (which returns nil here)
// or a listener error. Each connection gets its own handler goroutine;
// requests within a connection dispatch concurrently.
func (x *XTP) Serve(ln net.Listener) error {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		ln.Close()
		return errors.New("xtp: server closed")
	}
	x.lns[ln] = struct{}{}
	x.mu.Unlock()
	defer func() {
		x.mu.Lock()
		delete(x.lns, ln)
		x.mu.Unlock()
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			x.mu.Lock()
			closed := x.closed
			x.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		x.wg.Add(1)
		go x.handleConn(c)
	}
}

// Shutdown drains gracefully: stop accepting, tell every connection to go
// away (clients redial elsewhere or fail over), let in-flight requests
// finish writing, and close. When ctx expires first, in-flight handlers
// are canceled and connections force-closed.
func (x *XTP) Shutdown(ctx context.Context) error {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return nil
	}
	x.closed = true
	for ln := range x.lns {
		ln.Close()
	}
	conns := make([]*xtpConn, 0, len(x.conns))
	for cn := range x.conns {
		conns = append(conns, cn)
	}
	x.mu.Unlock()
	for _, cn := range conns {
		cn.beginDrain()
	}
	done := make(chan struct{})
	go func() { x.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		x.cancel() // abort in-flight registry work
		x.mu.Lock()
		for cn := range x.conns {
			cn.c.Close()
		}
		x.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// xtpConn is one accepted connection: a frame reader loop plus a mutex-
// serialized frame writer shared by every in-flight request handler.
type xtpConn struct {
	c net.Conn
	x *XTP

	// ten is the tenant this connection is bound to: the default until an
	// AuthReq rebinds it. Written and read only on the reader goroutine;
	// dispatched handlers receive the value as an argument (see dispatch),
	// so a later AuthReq never races an in-flight request.
	ten *Tenant

	wmu sync.Mutex // serializes frames, the handshake reply first
	w   *wire.Writer

	inflight sync.WaitGroup // dispatched request handlers

	draining bool // guarded by wmu; set once Goaway is sent
}

// handleConn owns one connection from accept to close.
func (x *XTP) handleConn(c net.Conn) {
	defer x.wg.Done()
	defer c.Close()
	x.m.connsTotal.Inc()

	// Handshake under a deadline: read the client's, answer with ours.
	// A version we don't speak still gets our answer — that is how the
	// client learns what the server does speak — then the connection ends.
	c.SetReadDeadline(time.Now().Add(xtpHandshakeTimeout))
	ver, err := wire.ReadHandshake(c)
	if err != nil {
		x.m.handshakeErr.Inc()
		x.log.Debug("xtp handshake failed", "remote", c.RemoteAddr().String(), "err", err)
		return
	}
	if ver != wire.Version {
		x.m.handshakeErr.Inc()
		x.log.Warn("xtp version mismatch", "remote", c.RemoteAddr().String(),
			"clientVersion", ver, "serverVersion", wire.Version)
		_ = wire.WriteHandshake(c, wire.Version) // best effort: we close either way
		return
	}
	c.SetReadDeadline(time.Time{})

	// Register before answering: once the client holds our handshake, a
	// Shutdown must find this connection in its drain snapshot, or the
	// client sees EOF instead of a Goaway. Holding wmu across the reply
	// orders it ahead of any Goaway that drain writes.
	cn := &xtpConn{c: c, x: x, w: wire.NewWriter(c), ten: x.reg.Tenants().Default()}
	cn.wmu.Lock()
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		cn.wmu.Unlock()
		return
	}
	x.conns[cn] = struct{}{}
	x.mu.Unlock()
	err = wire.WriteHandshake(c, wire.Version)
	cn.wmu.Unlock()
	x.m.connsOpen.Add(1)
	defer func() {
		x.mu.Lock()
		delete(x.conns, cn)
		x.mu.Unlock()
		x.m.connsOpen.Add(-1)
		x.log.Debug("xtp connection closed", "remote", c.RemoteAddr().String())
	}()
	if err != nil {
		x.m.handshakeErr.Inc()
		return
	}
	x.log.Debug("xtp connection open", "remote", c.RemoteAddr().String())

	cn.readLoop()
	// Let dispatched handlers finish writing their responses before the
	// deferred close tears the socket down.
	cn.inflight.Wait()
}

// readLoop decodes and dispatches frames until the stream ends or breaks
// protocol. Request bodies are decoded here, on the reader goroutine —
// Frame.Payload aliases the reader's scratch buffer, so handlers receive
// decoded values, never the raw frame.
func (cn *xtpConn) readLoop() {
	x := cn.x
	r := wire.NewReader(cn.c)
	var lastBytes int64
	for {
		f, err := r.ReadFrame()
		if err != nil {
			if !isConnClosed(err) {
				x.m.decodeErrors.Inc()
				x.log.Warn("xtp framing error", "remote", cn.c.RemoteAddr().String(), "err", err)
			}
			return
		}
		x.m.frameIn(f.Type, r.BytesRead()-lastBytes)
		lastBytes = r.BytesRead()
		switch f.Type {
		case wire.FramePing:
			cn.write(wire.FramePong, f.Corr, nil)
		case wire.FrameAuthReq:
			token, err := wire.DecodeAuthReq(f.Payload)
			if err != nil {
				cn.protocolError(f.Corr, err)
				return
			}
			t, aerr := x.reg.Tenants().resolveXTP(token)
			if aerr != nil {
				// Terminal, like the HTTP 401: an unauthenticated peer gets
				// nothing further on this connection.
				cn.writeError(f.Corr, aerr)
				return
			}
			cn.ten = t
			t.reqs.Inc()
			buf := wire.GetBuf()
			*buf = wire.AppendAuthResp(*buf, t.ID())
			cn.write(wire.FrameAuthResp, f.Corr, *buf)
			wire.PutBuf(buf)
		case wire.FrameEstimateReq:
			name, queries, streaming, err := wire.DecodeEstimateReq(f.Payload)
			if err != nil {
				cn.protocolError(f.Corr, err)
				return
			}
			go cn.handleEstimate(f.Corr, cn.dispatch(), name, queries, streaming)
		case wire.FrameFeedbackReq:
			name, query, actual, err := wire.DecodeFeedbackReq(f.Payload)
			if err != nil {
				cn.protocolError(f.Corr, err)
				return
			}
			go cn.handleFeedback(f.Corr, cn.dispatch(), name, query, actual)
		case wire.FrameFeedbackBatchReq:
			name, items, err := wire.DecodeFeedbackBatchReq(f.Payload)
			if err != nil {
				cn.protocolError(f.Corr, err)
				return
			}
			go cn.handleFeedbackBatch(f.Corr, cn.dispatch(), name, items)
		case wire.FrameStatsReq:
			go cn.handleStats(f.Corr, cn.dispatch())
		case wire.FrameRingReq:
			if len(f.Payload) != 0 {
				cn.protocolError(f.Corr, fmt.Errorf("RingReq carries no payload"))
				return
			}
			if data, aerr := x.ops.ring(); aerr != nil {
				cn.writeError(f.Corr, aerr)
			} else {
				cn.write(wire.FrameRingResp, f.Corr, data)
			}
		default:
			// Unknown or direction-inverted frame: the stream cannot be
			// trusted past it (see the versioning rules in docs/PROTOCOL.md).
			cn.protocolError(f.Corr, fmt.Errorf("unexpected frame type %s", f.Type))
			return
		}
	}
}

// dispatch counts one request frame against the connection's tenant and
// registers its handler as in flight. It runs on the reader goroutine and
// returns the tenant the handler runs as, so the handler's policy checks
// (ops.go) see the binding of the moment the frame arrived.
func (cn *xtpConn) dispatch() *Tenant {
	cn.ten.reqs.Inc()
	cn.inflight.Add(1)
	return cn.ten
}

func (cn *xtpConn) handleEstimate(corr uint64, t *Tenant, name string, queries []string, streaming bool) {
	defer cn.inflight.Done()
	start := time.Now()
	if items, aerr := cn.x.ops.estimate(cn.x.baseCtx, t, name, queries, streaming); aerr != nil {
		cn.writeError(corr, aerr)
	} else {
		buf := wire.GetBuf()
		*buf = wire.AppendEstimateResp(*buf, items)
		cn.write(wire.FrameEstimateResp, corr, *buf)
		wire.PutBuf(buf)
	}
	cn.x.m.observe(cn.x.m.estimateSeconds, start)
}

// handleFeedback acks every FeedbackReq, failures included: a rejection
// rides the ack as its error, like a failed registry call.
func (cn *xtpConn) handleFeedback(corr uint64, t *Tenant, name, query string, actual float64) {
	defer cn.inflight.Done()
	start := time.Now()
	ae := cn.x.ops.feedback(t, name, query, actual)
	if ae != nil {
		cn.x.m.errorSent(ae.Code)
	}
	buf := wire.GetBuf()
	*buf = wire.AppendFeedbackAck(*buf, ae)
	cn.write(wire.FrameFeedbackAck, corr, *buf)
	wire.PutBuf(buf)
	cn.x.m.observe(cn.x.m.feedbackSeconds, start)
}

func (cn *xtpConn) handleFeedbackBatch(corr uint64, t *Tenant, name string, items []api.FeedbackItem) {
	defer cn.inflight.Done()
	start := time.Now()
	if errs, aerr := cn.x.ops.feedbackBatch(t, name, items); aerr != nil {
		cn.writeError(corr, aerr) // counts the error
	} else {
		buf := wire.GetBuf()
		*buf = wire.AppendFeedbackBatchAck(*buf, errs)
		cn.write(wire.FrameFeedbackBatchAck, corr, *buf)
		wire.PutBuf(buf)
	}
	cn.x.m.observe(cn.x.m.feedbackSeconds, start)
}

func (cn *xtpConn) handleStats(corr uint64, t *Tenant) {
	defer cn.inflight.Done()
	start := time.Now()
	// Stats is a cold path; its deeply nested payload rides as JSON
	// (normatively specified — see the StatsResp section of PROTOCOL.md).
	data, err := json.Marshal(cn.x.ops.stats(t))
	if err != nil {
		cn.writeError(corr, api.WrapError(err, api.CodeInternal))
		return
	}
	cn.write(wire.FrameStatsResp, corr, data)
	cn.x.m.observe(cn.x.m.statsSeconds, start)
}

// write sends one frame, serializing against concurrent handlers. Write
// failures mean the client is gone; the reader loop will notice and wind
// the connection down, so they are counted but not otherwise handled.
func (cn *xtpConn) write(t wire.FrameType, corr uint64, payload []byte) {
	cn.wmu.Lock()
	before := cn.w.BytesWritten()
	err := cn.w.WriteFrame(t, corr, payload)
	delta := cn.w.BytesWritten() - before
	cn.wmu.Unlock()
	if err == nil {
		cn.x.m.frameOut(t, delta)
	}
}

// writeError fails one request with a typed error frame.
func (cn *xtpConn) writeError(corr uint64, ae *api.Error) {
	cn.x.m.errorSent(ae.Code)
	buf := wire.GetBuf()
	*buf = wire.AppendError(*buf, ae)
	cn.write(wire.FrameError, corr, *buf)
	wire.PutBuf(buf)
}

// protocolError reports an undecodable or out-of-place frame and is
// followed by connection teardown: framing sync is gone, so unlike a
// request-level failure this is terminal.
func (cn *xtpConn) protocolError(corr uint64, err error) {
	cn.x.m.decodeErrors.Inc()
	cn.x.log.Warn("xtp protocol error", "remote", cn.c.RemoteAddr().String(), "err", err)
	cn.writeError(corr, api.Errorf(api.CodeBadRequest, "protocol error: %s", err))
}

// beginDrain pushes a Goaway and stops the reader by expiring its
// deadline; in-flight handlers keep writing until done (handleConn waits).
func (cn *xtpConn) beginDrain() {
	cn.wmu.Lock()
	already := cn.draining
	cn.draining = true
	cn.wmu.Unlock()
	if already {
		return
	}
	cn.write(wire.FrameGoaway, 0, nil)
	cn.c.SetReadDeadline(time.Now())
}

// isConnClosed classifies reader-loop exits that are lifecycle, not
// protocol: clean EOF, our own close/drain, or a vanished peer.
func isConnClosed(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, syscall.ECONNRESET)
}

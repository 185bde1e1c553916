package remoteimpl

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gobeagle/internal/engine"
	"gobeagle/internal/trace"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Builder constructs the engine hosted for one session. The tracer is
	// the session's span tracer: wire the engine's Config.Trace to it so
	// traced requests (request.Traced) record scheduler/kernel/storage spans
	// the coordinator can drain with opDrainSpans. It stays disabled (one
	// atomic load per record) until a traced frame arrives. Required.
	Builder func(Geometry, *trace.Tracer) (engine.Engine, error)
	// SessionTTL is how long a session with no attached connection survives
	// before its engine is reclaimed — the window within which a coordinator
	// may re-dial and resume after a connection drop. Default 10 minutes.
	SessionTTL time.Duration
	// DebugAddr, when non-empty, is the worker's debug/metrics HTTP address
	// advertised to coordinators in the hello reply for metrics federation.
	DebugAddr string
	// Logf, when non-nil, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

// session is one hosted engine, durable across connection drops: the client
// names it on hello and may resume it from a fresh connection, which is what
// makes read retries after a broken connection possible at all.
type session struct {
	mu       sync.Mutex
	eng      engine.Engine
	tr       *trace.Tracer // session span tracer, shared with the engine
	conn     net.Conn      // current owner connection, nil when detached
	lastUsed time.Time
}

// Worker hosts engines behind the wire protocol: one session per
// coordinator backend, each serving a strictly serial request stream.
// cmd/beagleworker wraps it in a process.
type Worker struct {
	opts WorkerOptions

	mu       sync.Mutex
	sessions map[string]*session
	conns    map[net.Conn]bool
	closed   bool

	accepted atomic.Uint64 // sessions ever created
	requests atomic.Uint64 // engine requests dispatched

	wg sync.WaitGroup
}

// NewWorker builds a worker host.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Builder == nil {
		return nil, errors.New("remoteimpl: WorkerOptions.Builder is required")
	}
	if opts.SessionTTL <= 0 {
		opts.SessionTTL = 10 * time.Minute
	}
	return &Worker{
		opts:     opts,
		sessions: map[string]*session{},
		conns:    map[net.Conn]bool{},
	}, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// Serve accepts coordinator connections on ln until the context is
// cancelled or the listener fails, then closes every connection, joins all
// handlers and reclaims every session engine.
func (w *Worker) Serve(ctx context.Context, ln net.Listener) error {
	accepted := make(chan struct{})
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(w.opts.SessionTTL / 4)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				ln.Close()
				w.closeConns()
				return
			case <-accepted:
				return
			case <-t.C:
				w.sweep()
			}
		}
	}()
	var err error
	for {
		conn, aerr := ln.Accept()
		if aerr != nil {
			if ctx.Err() == nil {
				err = aerr
			}
			break
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.handle(conn)
		}()
	}
	close(accepted)
	w.wg.Wait()
	w.closeAll()
	return err
}

// closeConns closes every live connection so blocked handler reads unblock.
func (w *Worker) closeConns() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for c := range w.conns {
		c.Close()
	}
}

// closeAll reclaims every session engine; called once after all handlers
// joined.
func (w *Worker) closeAll() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	for id, s := range w.sessions {
		s.mu.Lock()
		if s.eng != nil {
			s.eng.Close()
			s.eng = nil
		}
		s.mu.Unlock()
		delete(w.sessions, id)
	}
}

// sweep reclaims sessions whose coordinator has been gone longer than the
// TTL: their engines hold pattern-slice state nobody can resume anymore.
func (w *Worker) sweep() {
	cutoff := time.Now().Add(-w.opts.SessionTTL)
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, s := range w.sessions {
		s.mu.Lock()
		dead := s.conn == nil && s.lastUsed.Before(cutoff)
		if dead && s.eng != nil {
			s.eng.Close()
			s.eng = nil
		}
		s.mu.Unlock()
		if dead {
			delete(w.sessions, id)
			w.logf("remoteimpl: reclaimed idle session %s", id)
		}
	}
}

// SessionCount reports the live sessions, for tests and diagnostics.
func (w *Worker) SessionCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sessions)
}

// AcceptedSessions reports how many sessions this worker ever created —
// the number beagleworker logs on drain.
func (w *Worker) AcceptedSessions() uint64 { return w.accepted.Load() }

// RequestCount reports the engine requests dispatched across all sessions.
func (w *Worker) RequestCount() uint64 { return w.requests.Load() }

// ConnCount reports the live coordinator connections.
func (w *Worker) ConnCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.conns)
}

// handle serves one connection: a hello handshake binding it to a session,
// then a strictly serial request/response stream against that session's
// engine.
func (w *Worker) handle(conn net.Conn) {
	defer conn.Close()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.conns[conn] = true
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()

	sess, err := w.handshake(conn)
	if err != nil {
		w.logf("remoteimpl: handshake from %s: %v", conn.RemoteAddr(), err)
		return
	}
	if sess == nil {
		return // probe hello: answered and done
	}
	defer func() {
		sess.mu.Lock()
		if sess.conn == conn {
			sess.conn = nil // detach; the TTL sweep reclaims if nobody resumes
			sess.lastUsed = time.Now()
		}
		sess.mu.Unlock()
	}()

	for {
		var req request
		if _, err := readMsg(conn, &req, maxFrame); err != nil {
			return
		}
		resp := w.dispatch(sess, conn, &req)
		if resp == nil {
			// Session closed by client. The map removal happens here, with no
			// session lock held: the global lock order is Worker.mu before
			// session.mu (closeAll, sweep), so dispatch must never acquire
			// Worker.mu while holding the session lock.
			w.removeSession(sess)
			return
		}
		if _, err := writeMsg(conn, resp); err != nil {
			return
		}
	}
}

// handshake reads the hello request and binds the connection to its session,
// taking the session over from a previous (stale) connection if necessary.
// A nil session with nil error is a probe hello.
func (w *Worker) handshake(conn net.Conn) (*session, error) {
	var req request
	if _, err := readMsg(conn, &req, maxHelloFrame); err != nil {
		return nil, err
	}
	if req.Op != opHello {
		return nil, fmt.Errorf("first request is %v, want hello", req.Op)
	}
	info := &HelloInfo{Version: protocolVersion, Cores: runtime.NumCPU(), DebugAddr: w.opts.DebugAddr}
	if req.Session == "" {
		// Probe: report capabilities without creating state.
		_, err := writeMsg(conn, &response{Seq: req.Seq, Hello: info})
		return nil, err
	}
	w.mu.Lock()
	sess, ok := w.sessions[req.Session]
	if !ok {
		if req.Resume {
			w.mu.Unlock()
			writeMsg(conn, &response{Seq: req.Seq,
				Err: fmt.Sprintf("remoteimpl: unknown session %q (worker restarted?)", req.Session)})
			return nil, fmt.Errorf("resume of unknown session %q", req.Session)
		}
		sess = &session{tr: trace.New()}
		w.sessions[req.Session] = sess
		w.accepted.Add(1)
	}
	w.mu.Unlock()
	sess.mu.Lock()
	if old := sess.conn; old != nil && old != conn {
		// The coordinator re-dialed while the worker still considers the old
		// connection live (half-open TCP); the newest connection wins.
		old.Close()
	}
	sess.conn = conn
	sess.lastUsed = time.Now()
	info.Resumed = ok && sess.eng != nil
	sess.mu.Unlock()
	_, err := writeMsg(conn, &response{Seq: req.Seq, Hello: info})
	return sess, err
}

// removeSession drops a client-closed session from the map. Must be called
// with no session lock held (Worker.mu is acquired before session.mu
// everywhere else).
func (w *Worker) removeSession(sess *session) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, s := range w.sessions {
		if s == sess {
			delete(w.sessions, id)
		}
	}
}

// dispatch executes one request against the session. Returns nil when the
// client closed the session (connection teardown follows; the caller removes
// the session from the worker map).
func (w *Worker) dispatch(sess *session, conn net.Conn, req *request) *response {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.lastUsed = time.Now()
	w.requests.Add(1)
	switch req.Op {
	case opCreate:
		if sess.eng != nil {
			sess.eng.Close()
		}
		eng, err := w.opts.Builder(req.Geometry, sess.tr)
		if err != nil {
			sess.eng = nil
			return &response{Seq: req.Seq, Err: err.Error()}
		}
		sess.eng = eng
		return &response{Seq: req.Seq}
	case opCloseSession:
		if sess.eng != nil {
			sess.eng.Close()
			sess.eng = nil
		}
		writeMsg(conn, &response{Seq: req.Seq})
		return nil
	case opDrainSpans:
		// Hand the retained engine-side spans to the coordinator for trace
		// stitching, with the session clock's "now" so the client can rebase
		// them, then clear the rings for the next drain window.
		resp := &response{Seq: req.Seq, Spans: sess.tr.Snapshot(), NowNanos: sess.tr.Now()}
		sess.tr.Reset()
		return resp
	}
	if sess.eng == nil {
		return &response{Seq: req.Seq, Err: "remoteimpl: session has no engine (create first)"}
	}
	// Trace context (protocol v2): the coordinator's frame says whether its
	// tracer is recording; mirror that onto the session tracer so the
	// engine's layers record (or skip) spans for exactly the traced calls,
	// each stamped with the originating request identity.
	if req.Traced != sess.tr.Enabled() {
		sess.tr.SetEnabled(req.Traced)
	}
	if !req.Traced {
		return applyRequest(sess.eng, req)
	}
	sess.tr.SetRequest(req.TraceReq)
	t0 := sess.tr.Now()
	resp := applyRequest(sess.eng, req)
	sess.tr.Record(trace.Span{
		Kind: trace.KindRemoteApply, Lane: -1,
		Start: t0, Dur: sess.tr.Now() - t0,
		Arg0: int64(req.Op), Req: req.TraceReq,
	})
	sess.tr.SetRequest(0)
	return resp
}

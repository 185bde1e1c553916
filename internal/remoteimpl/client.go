package remoteimpl

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gobeagle/internal/engine"
	"gobeagle/internal/trace"
)

// Options configures a remote engine client.
type Options struct {
	// Addr is the worker's TCP address. Required.
	Addr string
	// DialTimeout bounds connection establishment. Default 5 s.
	DialTimeout time.Duration
	// CallTimeout is the per-call deadline covering write, worker execution
	// and response read. Default 60 s.
	CallTimeout time.Duration
	// MaxRetries bounds retry attempts for idempotent reads after a
	// transport failure; each attempt re-dials and resumes the worker-side
	// session. Mutating calls are never retried (see package doc). Default 3.
	MaxRetries int
	// RetryBackoff is the initial retry delay, doubled per attempt.
	// Default 50 ms.
	RetryBackoff time.Duration
	// HealthInterval is the period of the background liveness ping; zero
	// uses the 5 s default, negative disables health checking.
	HealthInterval time.Duration
	// Fallback, when non-nil, builds the local replacement engine used when
	// the worker is unrecoverable: the client replays its journal of
	// successful mutating calls into the fallback and routes all subsequent
	// calls there, bit-identically. Without a fallback, an unrecoverable
	// failure surfaces as an error.
	Fallback func(engine.Config) (engine.Engine, error)
	// JournalLimit caps the number of journaled mutating calls; past it the
	// journal is dropped and failover disabled (the client cannot replay).
	// Default 65536.
	JournalLimit int
	// Logf, when non-nil, receives retry/redial/failover lifecycle messages.
	Logf func(format string, args ...any)
}

// Stats is a snapshot of the client's transport counters.
type Stats struct {
	RPCs            int64 // exchange attempts, including failed ones
	Retries         int64 // idempotent-read retry attempts
	Redials         int64 // successful reconnect+resume cycles
	Failovers       int64 // local-fallback activations (0 or 1)
	PingFailures    int64 // health-check pings that got no answer
	BytesSent       int64
	BytesReceived   int64
	LinkBandwidth   float64 // EWMA payload bandwidth, bytes/sec; 0 = unmeasured
	FailedOver      bool
	JournalLen      int
	JournalOverflow bool
}

// Engine is an engine.Engine whose computation runs in a beagleworker
// process. It also implements engine.PatternMigrator (blocks cross the wire)
// and reports measured link bandwidth for the hierarchical rebalancer's
// migration-cost model.
type Engine struct {
	cfg       engine.Config // original creation config, kept for failover
	opts      Options
	session   string
	name      string
	debugAddr string // worker's advertised debug/metrics HTTP address

	tr   *trace.Tracer
	lane int32

	mu        sync.Mutex
	conn      net.Conn
	local     engine.Engine // non-nil once failed over
	journal   []*request
	overflow  bool
	seq       uint64
	pingFails int

	stop chan struct{}
	wg   sync.WaitGroup

	rpcs         atomic.Int64
	retries      atomic.Int64
	redials      atomic.Int64
	failovers    atomic.Int64
	pingFailures atomic.Int64
	bytesSent    atomic.Int64
	bytesRecv    atomic.Int64
	failedOver   atomic.Bool
	bwBits       atomic.Uint64 // math.Float64bits of the bandwidth EWMA
}

var (
	_ engine.Engine          = (*Engine)(nil)
	_ engine.PatternMigrator = (*Engine)(nil)
)

// New dials the worker, creates the remote engine with cfg's geometry and
// returns the client. cfg's Trace hook stays on this side of the wire: RPC
// spans are recorded into cfg.Trace on cfg.TraceLane.
func New(cfg engine.Config, opts Options) (*Engine, error) {
	if opts.Addr == "" {
		return nil, errors.New("remoteimpl: Options.Addr is required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = 60 * time.Second
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 3
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 50 * time.Millisecond
	}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = 5 * time.Second
	}
	if opts.JournalLimit <= 0 {
		opts.JournalLimit = 1 << 16
	}
	session, err := randomHex(16)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		opts:    opts,
		session: session,
		tr:      cfg.Trace,
		lane:    int32(cfg.TraceLane),
	}
	conn, hello, err := e.dial(false)
	if err != nil {
		return nil, err
	}
	e.conn = conn
	e.debugAddr = hello.DebugAddr
	resp, err := e.exchangeLocked(&request{Op: opCreate, Geometry: geometryOf(cfg)})
	if err == nil && resp.Err != "" {
		err = errors.New(resp.Err)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("remoteimpl: create on %s: %w", opts.Addr, err)
	}
	resp, err = e.exchangeLocked(&request{Op: opName})
	if err == nil && resp.Err != "" {
		err = errors.New(resp.Err)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("remoteimpl: name on %s: %w", opts.Addr, err)
	}
	e.name = "Remote[" + opts.Addr + "]-" + resp.Name
	if opts.HealthInterval > 0 {
		e.stop = make(chan struct{})
		e.wg.Add(1)
		go e.pinger()
	}
	return e, nil
}

// Probe dials addr, performs a stateless hello and reports the worker's
// capabilities — how a coordinator derives a default load share before any
// throughput measurement exists.
func Probe(addr string, timeout time.Duration) (*HelloInfo, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	d := net.Dialer{Timeout: timeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := writeMsg(conn, &request{Op: opHello}); err != nil {
		return nil, err
	}
	var resp response
	if _, err := readMsg(conn, &resp, maxFrame); err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	if resp.Hello == nil {
		return nil, errors.New("remoteimpl: malformed hello reply")
	}
	if resp.Hello.Version < minProtocolVersion || resp.Hello.Version > protocolVersion {
		return nil, fmt.Errorf("remoteimpl: protocol version %d on %s, want %d..%d",
			resp.Hello.Version, addr, minProtocolVersion, protocolVersion)
	}
	return resp.Hello, nil
}

func randomHex(n int) (string, error) {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return "", fmt.Errorf("remoteimpl: session id: %w", err)
	}
	return hex.EncodeToString(b), nil
}

func (e *Engine) logf(format string, args ...any) {
	if e.opts.Logf != nil {
		e.opts.Logf(format, args...)
	}
}

// dial connects and performs the hello handshake binding (or resuming) the
// client's session.
func (e *Engine) dial(resume bool) (net.Conn, *HelloInfo, error) {
	d := net.Dialer{Timeout: e.opts.DialTimeout}
	conn, err := d.Dial("tcp", e.opts.Addr)
	if err != nil {
		return nil, nil, err
	}
	conn.SetDeadline(time.Now().Add(e.opts.CallTimeout))
	if _, err := writeMsg(conn, &request{Op: opHello, Session: e.session, Resume: resume}); err != nil {
		conn.Close()
		return nil, nil, err
	}
	var resp response
	if _, err := readMsg(conn, &resp, maxFrame); err != nil {
		conn.Close()
		return nil, nil, err
	}
	conn.SetDeadline(time.Time{})
	if resp.Err != "" {
		conn.Close()
		return nil, nil, errors.New(resp.Err)
	}
	if resp.Hello == nil {
		conn.Close()
		return nil, nil, errors.New("remoteimpl: malformed hello reply")
	}
	if resp.Hello.Version < minProtocolVersion || resp.Hello.Version > protocolVersion {
		conn.Close()
		return nil, nil, fmt.Errorf("remoteimpl: protocol version %d on %s, want %d..%d",
			resp.Hello.Version, e.opts.Addr, minProtocolVersion, protocolVersion)
	}
	return conn, resp.Hello, nil
}

// exchangeLocked performs one request/response round trip on the current
// connection under the per-call deadline, recording the RPC span, byte
// counters and — for payload-sized frames — the link-bandwidth EWMA. Any
// transport failure closes the connection (the stream may be desynced).
func (e *Engine) exchangeLocked(req *request) (*response, error) {
	if e.conn == nil {
		return nil, errors.New("remoteimpl: no connection")
	}
	e.rpcs.Add(1)
	e.seq++
	req.Seq = e.seq
	start := time.Now()
	var t0 int64
	traced := e.tr.Enabled()
	if traced {
		t0 = e.tr.Now()
		// Propagate trace context (protocol v2): the worker mirrors the
		// enabled bit onto its session tracer and stamps its engine-side
		// spans with the originating request identity. A v1 worker decodes
		// and ignores these fields.
		req.Traced = true
		req.TraceReq = e.tr.CurrentRequest()
	}
	e.conn.SetDeadline(start.Add(e.opts.CallTimeout))
	sent, err := writeMsg(e.conn, req)
	e.bytesSent.Add(int64(sent))
	if err != nil {
		e.conn.Close()
		e.conn = nil
		return nil, err
	}
	var resp response
	recvd, err := readMsg(e.conn, &resp, maxFrame)
	e.bytesRecv.Add(int64(recvd))
	if err != nil {
		e.conn.Close()
		e.conn = nil
		return nil, err
	}
	e.conn.SetDeadline(time.Time{})
	if resp.Seq != req.Seq {
		e.conn.Close()
		e.conn = nil
		return nil, fmt.Errorf("remoteimpl: response out of sequence (got %d, want %d)", resp.Seq, req.Seq)
	}
	total := sent + recvd
	// Only payload-sized frames measure bandwidth: tiny control frames are
	// dominated by round-trip latency, not link rate.
	if elapsed := time.Since(start); total > 4096 && elapsed > 0 {
		e.observeBandwidth(float64(total) / elapsed.Seconds())
	}
	if traced {
		e.tr.Record(trace.Span{
			Kind: trace.KindRPC, Lane: e.lane,
			Start: t0, Dur: e.tr.Now() - t0,
			Arg0: int64(req.Op), Arg1: int64(total),
		})
	}
	return &resp, nil
}

func (e *Engine) observeBandwidth(rate float64) {
	const alpha = 0.3
	for {
		old := e.bwBits.Load()
		cur := math.Float64frombits(old)
		next := rate
		if cur != 0 {
			next = alpha*rate + (1-alpha)*cur
		}
		if e.bwBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// LinkBandwidth reports the EWMA payload bandwidth to this worker in
// bytes/sec; 0 means no payload-sized frame has been measured yet. The
// hierarchical rebalancer charges cross-node migrations against this.
func (e *Engine) LinkBandwidth() float64 {
	return math.Float64frombits(e.bwBits.Load())
}

// redialLocked reconnects and resumes the worker-side session.
func (e *Engine) redialLocked() error {
	if e.conn != nil {
		e.conn.Close()
		e.conn = nil
	}
	conn, hello, err := e.dial(true)
	if err != nil {
		return err
	}
	if !hello.Resumed {
		conn.Close()
		return errors.New("remoteimpl: session resumed without engine state")
	}
	e.conn = conn
	e.pingFails = 0
	e.redials.Add(1)
	e.logf("remoteimpl: reconnected to %s, session resumed", e.opts.Addr)
	return nil
}

// journalLocked records a successful mutating call for failover replay.
func (e *Engine) journalLocked(req *request, resp *response) {
	if !req.Op.mutates() || resp.Err != "" || e.overflow || e.opts.Fallback == nil {
		return
	}
	e.journal = append(e.journal, cloneRequest(req))
	if len(e.journal) > e.opts.JournalLimit {
		e.journal = nil
		e.overflow = true
		e.logf("remoteimpl: journal exceeded %d entries; failover disabled for %s",
			e.opts.JournalLimit, e.opts.Addr)
	}
}

// failoverLocked builds the local fallback engine from the original creation
// config, replays the journal through the same dispatcher the worker uses,
// and routes all subsequent calls locally. Replaying into a fresh engine
// sidesteps the executed-or-not ambiguity of the failed call entirely: the
// fallback's state is exactly the state produced by every call the client
// saw succeed.
func (e *Engine) failoverLocked(cause error) error {
	if e.local != nil {
		return nil
	}
	if e.opts.Fallback == nil {
		return fmt.Errorf("remoteimpl: worker %s unreachable and no fallback configured: %w",
			e.opts.Addr, cause)
	}
	if e.overflow {
		return fmt.Errorf("remoteimpl: worker %s unreachable and journal overflowed (cannot replay): %w",
			e.opts.Addr, cause)
	}
	fb, err := e.opts.Fallback(e.cfg)
	if err != nil {
		return fmt.Errorf("remoteimpl: worker %s unreachable and fallback build failed: %v (cause: %w)",
			e.opts.Addr, err, cause)
	}
	for i, jr := range e.journal {
		if resp := applyRequest(fb, jr); resp.Err != "" {
			fb.Close()
			return fmt.Errorf("remoteimpl: journal replay failed at entry %d (%v): %s",
				i, jr.Op, resp.Err)
		}
	}
	if e.conn != nil {
		e.conn.Close()
		e.conn = nil
	}
	e.local = fb
	e.journal = nil
	e.failedOver.Store(true)
	e.failovers.Add(1)
	e.logf("remoteimpl: worker %s lost (%v); failed over to local %s after journal replay",
		e.opts.Addr, cause, fb.Name())
	return nil
}

// do routes one call: locally after failover, otherwise over the wire with
// the op-class-appropriate failure handling (see package doc).
func (e *Engine) do(req *request) (*response, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.doLocked(req)
}

func (e *Engine) doLocked(req *request) (*response, error) {
	if e.local != nil {
		return applyRequest(e.local, req), nil
	}
	resp, err := e.exchangeLocked(req)
	if err == nil {
		e.journalLocked(req, resp)
		return resp, nil
	}
	if req.Op.mutates() {
		// The worker may have executed the call before the connection died;
		// retrying could double-apply. Fail over to a replayed fresh engine
		// and apply the call there instead.
		e.logf("remoteimpl: %v to %s failed (%v); failing over", req.Op, e.opts.Addr, err)
		if ferr := e.failoverLocked(err); ferr != nil {
			return nil, ferr
		}
		return applyRequest(e.local, req), nil
	}
	// Idempotent read: bounded retries with exponential backoff, re-dialing
	// and resuming the session each attempt.
	backoff := e.opts.RetryBackoff
	for attempt := 0; attempt < e.opts.MaxRetries; attempt++ {
		e.retries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
		if rerr := e.redialLocked(); rerr != nil {
			err = rerr
			continue
		}
		resp, err = e.exchangeLocked(req)
		if err == nil {
			return resp, nil
		}
	}
	if ferr := e.failoverLocked(err); ferr != nil {
		return nil, ferr
	}
	return applyRequest(e.local, req), nil
}

// pinger is the background health checker: it skips ticks while a call is in
// flight (traffic is its own liveness proof), re-dials on a failed ping, and
// fails over after three consecutive unanswered pings so dead workers are
// detected between batches, not discovered mid-batch.
func (e *Engine) pinger() {
	defer e.wg.Done()
	t := time.NewTicker(e.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			if !e.mu.TryLock() {
				continue
			}
			e.pingLocked()
			e.mu.Unlock()
		}
	}
}

func (e *Engine) pingLocked() {
	if e.local != nil {
		return
	}
	if e.conn != nil {
		if _, err := e.exchangeLocked(&request{Op: opPing}); err == nil {
			e.pingFails = 0
			return
		}
	}
	e.pingFails++
	e.pingFailures.Add(1)
	if err := e.redialLocked(); err == nil {
		return
	} else if e.pingFails >= 3 {
		if ferr := e.failoverLocked(err); ferr != nil {
			e.logf("remoteimpl: health failover for %s failed: %v", e.opts.Addr, ferr)
		}
	}
}

// Stats snapshots the transport counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	jl, of := len(e.journal), e.overflow
	e.mu.Unlock()
	return Stats{
		RPCs:            e.rpcs.Load(),
		Retries:         e.retries.Load(),
		Redials:         e.redials.Load(),
		Failovers:       e.failovers.Load(),
		PingFailures:    e.pingFailures.Load(),
		BytesSent:       e.bytesSent.Load(),
		BytesReceived:   e.bytesRecv.Load(),
		LinkBandwidth:   e.LinkBandwidth(),
		FailedOver:      e.failedOver.Load(),
		JournalLen:      jl,
		JournalOverflow: of,
	}
}

// FailedOver reports whether the client has switched to its local fallback.
func (e *Engine) FailedOver() bool { return e.failedOver.Load() }

func respErr(resp *response) error {
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// Name identifies the client with its worker address and remote engine name.
func (e *Engine) Name() string { return e.name }

// Addr reports the worker address the client was created against.
func (e *Engine) Addr() string { return e.opts.Addr }

// DebugAddr reports the worker's advertised debug/metrics HTTP address,
// empty when the worker serves none (or predates protocol v2).
func (e *Engine) DebugAddr() string { return e.debugAddr }

// DrainSpans fetches and clears the worker-side session tracer, returning
// the worker's engine spans rebased into this client's tracer timeline by
// rebaseDelta. Host-layer spans move; modeled-device-clock spans
// (KindKernel/KindTransfer) keep their own timebase, as they do locally.
// Returns nil when tracing is off, after failover, or when the worker
// predates the drain op (a v1 worker answers with an unknown-op error).
func (e *Engine) DrainSpans() ([]trace.Span, error) {
	if !e.tr.Enabled() {
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.local != nil || e.conn == nil {
		return nil, nil
	}
	t0 := e.tr.Now()
	resp, err := e.exchangeLocked(&request{Op: opDrainSpans})
	t1 := e.tr.Now()
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, nil // v1 worker: no spans to stitch
	}
	spans := resp.Spans
	earliest := int64(math.MaxInt64)
	for _, sp := range spans {
		if sp.Kind.Layer() != trace.LayerDevice {
			earliest = min(earliest, sp.Start)
		}
	}
	delta := rebaseDelta(t0, t1, resp.NowNanos, earliest)
	for i := range spans {
		if spans[i].Kind.Layer() != trace.LayerDevice {
			spans[i].Start += delta
		}
	}
	return spans, nil
}

// rebaseDelta is the shift from the worker's trace clock to the client's.
// The worker read its clock (workerNow) inside the drain's round trip, which
// the client bracketed with t0 and t1, so the true shift lies in
// [t0−workerNow, t1−workerNow]. The midpoint estimates it. A slow leg can
// put the midpoint far enough from the truth to place the earliest host-layer
// span (earliest, on the worker's clock) before the client's epoch; the shift
// is then raised to start that span at 0, inside the interval whenever the
// worker recorded nothing before the client's tracer existed.
func rebaseDelta(t0, t1, workerNow, earliest int64) int64 {
	lo, hi := t0-workerNow, t1-workerNow
	delta := lo + (hi-lo)/2
	if earliest != math.MaxInt64 && earliest+delta < 0 {
		delta = -earliest
	}
	return delta
}

func (e *Engine) SetTipStates(buf int, states []int) error {
	resp, err := e.do(&request{Op: opSetTipStates, Buf: buf, Ints: states})
	if err != nil {
		return err
	}
	return respErr(resp)
}

func (e *Engine) SetTipPartials(buf int, partials []float64) error {
	resp, err := e.do(&request{Op: opSetTipPartials, Buf: buf, Floats: partials})
	if err != nil {
		return err
	}
	return respErr(resp)
}

func (e *Engine) SetPartials(buf int, partials []float64) error {
	resp, err := e.do(&request{Op: opSetPartials, Buf: buf, Floats: partials})
	if err != nil {
		return err
	}
	return respErr(resp)
}

func (e *Engine) GetPartials(buf int) ([]float64, error) {
	resp, err := e.do(&request{Op: opGetPartials, Buf: buf})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return resp.Floats, nil
}

func (e *Engine) SetEigenDecomposition(slot int, values, vectors, inverseVectors []float64) error {
	resp, err := e.do(&request{
		Op: opSetEigen, Buf: slot,
		Floats: values, Floats2: vectors, Floats3: inverseVectors,
	})
	if err != nil {
		return err
	}
	return respErr(resp)
}

func (e *Engine) SetCategoryRates(rates []float64) error {
	resp, err := e.do(&request{Op: opSetCategoryRates, Floats: rates})
	if err != nil {
		return err
	}
	return respErr(resp)
}

func (e *Engine) SetCategoryWeights(weights []float64) error {
	resp, err := e.do(&request{Op: opSetCategoryWeights, Floats: weights})
	if err != nil {
		return err
	}
	return respErr(resp)
}

func (e *Engine) SetStateFrequencies(freqs []float64) error {
	resp, err := e.do(&request{Op: opSetStateFrequencies, Floats: freqs})
	if err != nil {
		return err
	}
	return respErr(resp)
}

func (e *Engine) SetPatternWeights(weights []float64) error {
	resp, err := e.do(&request{Op: opSetPatternWeights, Floats: weights})
	if err != nil {
		return err
	}
	return respErr(resp)
}

func (e *Engine) SetTransitionMatrix(matrix int, values []float64) error {
	resp, err := e.do(&request{Op: opSetTransitionMatrix, Buf: matrix, Floats: values})
	if err != nil {
		return err
	}
	return respErr(resp)
}

func (e *Engine) GetTransitionMatrix(matrix int) ([]float64, error) {
	resp, err := e.do(&request{Op: opGetTransitionMatrix, Buf: matrix})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return resp.Floats, nil
}

func (e *Engine) UpdateTransitionMatrices(eigenSlot int, matrices []int, edgeLengths []float64) error {
	resp, err := e.do(&request{Op: opUpdateMatrices, Buf: eigenSlot, Ints: matrices, Floats: edgeLengths})
	if err != nil {
		return err
	}
	return respErr(resp)
}

func (e *Engine) UpdatePartials(ops []engine.Operation) error {
	resp, err := e.do(&request{Op: opUpdatePartials, Ops: ops})
	if err != nil {
		return err
	}
	return respErr(resp)
}

func (e *Engine) ResetScaleFactors(scaleBuf int) error {
	resp, err := e.do(&request{Op: opResetScale, Buf: scaleBuf})
	if err != nil {
		return err
	}
	return respErr(resp)
}

func (e *Engine) AccumulateScaleFactors(scaleBufs []int, cumBuf int) error {
	resp, err := e.do(&request{Op: opAccumulateScale, Ints: scaleBufs, Buf: cumBuf})
	if err != nil {
		return err
	}
	return respErr(resp)
}

func (e *Engine) CalculateRootLogLikelihoods(rootBuf, cumScaleBuf int) (float64, error) {
	resp, err := e.do(&request{Op: opRoot, Buf: rootBuf, Buf2: cumScaleBuf})
	if err != nil {
		return 0, err
	}
	if resp.Err != "" {
		return 0, errors.New(resp.Err)
	}
	return resp.F0, nil
}

func (e *Engine) CalculateEdgeLogLikelihoods(parentBuf, childBuf, matrix, cumScaleBuf int) (float64, error) {
	resp, err := e.do(&request{Op: opEdge, Buf: parentBuf, Buf2: childBuf, Buf3: matrix, Buf4: cumScaleBuf})
	if err != nil {
		return 0, err
	}
	if resp.Err != "" {
		return 0, errors.New(resp.Err)
	}
	return resp.F0, nil
}

func (e *Engine) UpdateTransitionDerivatives(eigenSlot int, d1Matrices, d2Matrices []int, edgeLengths []float64) error {
	resp, err := e.do(&request{
		Op: opUpdateDerivs, Buf: eigenSlot,
		Ints: d1Matrices, Ints2: d2Matrices, Floats: edgeLengths,
	})
	if err != nil {
		return err
	}
	return respErr(resp)
}

func (e *Engine) CalculateEdgeDerivatives(parentBuf, childBuf, matrix, d1Matrix, d2Matrix, cumScaleBuf int) (float64, float64, float64, error) {
	resp, err := e.do(&request{
		Op:  opEdgeDerivs,
		Buf: parentBuf, Buf2: childBuf, Buf3: matrix,
		Buf4: d1Matrix, Buf5: d2Matrix, Buf6: cumScaleBuf,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	if resp.Err != "" {
		return 0, 0, 0, errors.New(resp.Err)
	}
	return resp.F0, resp.F1, resp.F2, nil
}

func (e *Engine) SiteLogLikelihoods(rootBuf, cumScaleBuf int) ([]float64, error) {
	resp, err := e.do(&request{Op: opSiteLnLs, Buf: rootBuf, Buf2: cumScaleBuf})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return resp.Floats, nil
}

func (e *Engine) DetachPatterns(fromHigh bool, n int) (*engine.PatternBlock, error) {
	resp, err := e.do(&request{Op: opDetach, FromHigh: fromHigh, N: n})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return resp.Block, nil
}

func (e *Engine) AttachPatterns(atHigh bool, blk *engine.PatternBlock) error {
	resp, err := e.do(&request{Op: opAttach, FromHigh: atHigh, Block: blk})
	if err != nil {
		return err
	}
	return respErr(resp)
}

// Close stops the health checker, releases the worker-side session
// (best-effort) and closes the connection or the local fallback.
func (e *Engine) Close() error {
	if e.stop != nil {
		close(e.stop)
		e.wg.Wait()
		e.stop = nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.conn != nil {
		e.seq++
		e.conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := writeMsg(e.conn, &request{Op: opCloseSession, Seq: e.seq}); err == nil {
			var resp response
			readMsg(e.conn, &resp, maxFrame)
		}
		e.conn.Close()
		e.conn = nil
	}
	if e.local != nil {
		err := e.local.Close()
		e.local = nil
		return err
	}
	return nil
}

// Package remoteimpl is the distributed backend: an engine.Engine whose
// computation runs in a separate worker process (cmd/beagleworker), reached
// over a length-prefixed gob wire protocol on TCP. It is the cluster-scale
// step of the paper's §IX load-balancing direction — the multi-device engine
// in internal/multiimpl treats a remote client exactly like a local backend,
// so site patterns shard across machines under the same partitioning and
// EWMA rebalancing that already shards them across devices, and
// engine.PatternMigrator blocks move bit-identically across the network.
//
// Because every kernel in this repository is deterministic, a remote backend
// is bit-identical to a local one: the wire carries float64 values unchanged
// (gob encodes them exactly), and the worker executes the very same engine
// code. The protocol is therefore a transport, not a numeric boundary.
//
// Robustness is part of the contract, not an afterthought:
//
//   - every call carries a deadline (callTimeout);
//   - idempotent reads retry with bounded exponential backoff, re-dialing
//     and resuming the worker-side session when the connection dropped;
//   - mutating calls never retry against the same worker (the worker may
//     have executed them before the connection died) — instead the client
//     journals every successful mutating call and, on an unrecoverable
//     failure, builds a local fallback engine, replays the journal, and
//     transparently routes all subsequent calls to it ("failover");
//   - a background health checker pings the worker between batches and
//     triggers the same failover early when the worker is gone, so a dead
//     worker's pattern blocks are recovered (the replayed fallback holds
//     them) and the next batch completes bit-identically.
package remoteimpl

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"gobeagle/internal/engine"
	"gobeagle/internal/kernels"
	"gobeagle/internal/trace"
)

// protocolVersion guards against coordinator/worker skew; bumped on any wire
// format change, and the client accepts only a worker that speaks it.
// Version 2 added trace-context propagation (request.Traced /
// request.TraceReq), the span-drain op and HelloInfo.DebugAddr.
const protocolVersion = 2

// maxFrame bounds one wire frame. Migration blocks are the largest payloads
// (all partials buffers for a pattern span); 1 GiB leaves headroom for any
// realistic problem while rejecting corrupt length prefixes early.
const maxFrame = 1 << 30

// maxHelloFrame bounds a connection's first frame, the hello, which arrives
// before anything has been agreed with the peer. A hello is well under a KiB
// of gob, so any TCP peer that sends a larger length prefix is refused before
// a buffer is made for it, rather than getting one of up to maxFrame bytes.
const maxHelloFrame = 4 << 10

// opCode identifies one engine operation on the wire.
type opCode uint8

const (
	opHello opCode = iota
	opCreate
	opPing
	opCloseSession
	opName
	opSetTipStates
	opSetTipPartials
	opSetPartials
	opGetPartials
	opSetEigen
	opSetCategoryRates
	opSetCategoryWeights
	opSetStateFrequencies
	opSetPatternWeights
	opSetTransitionMatrix
	opGetTransitionMatrix
	opUpdateMatrices
	opUpdatePartials
	opResetScale
	opAccumulateScale
	opRoot
	opEdge
	opUpdateDerivs
	opEdgeDerivs
	opSiteLnLs
	opDetach
	opAttach
	opDrainSpans
)

// String names the op for diagnostics and trace args.
func (o opCode) String() string {
	names := [...]string{
		"hello", "create", "ping", "close-session", "name",
		"set-tip-states", "set-tip-partials", "set-partials", "get-partials",
		"set-eigen", "set-category-rates", "set-category-weights",
		"set-state-frequencies", "set-pattern-weights",
		"set-transition-matrix", "get-transition-matrix",
		"update-matrices", "update-partials",
		"reset-scale", "accumulate-scale",
		"root", "edge", "update-derivs", "edge-derivs", "site-lnls",
		"detach", "attach", "drain-spans",
	}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Geometry is the wire form of engine.Config: the plain creation-time fields
// without the host-only tracer pointer. The worker rebuilds an engine.Config
// from it with its own (nil) observability hooks.
type Geometry struct {
	TipCount        int
	PartialsBuffers int
	MatrixBuffers   int
	EigenBuffers    int
	ScaleBuffers    int
	StateCount      int
	PatternCount    int
	CategoryCount   int
	SinglePrecision bool
	Threads         int
	WorkGroupSize   int
	DisableFMA      bool
	Reuse           bool
}

// geometryOf strips an engine.Config to its wire form.
func geometryOf(cfg engine.Config) Geometry {
	return Geometry{
		TipCount:        cfg.TipCount,
		PartialsBuffers: cfg.PartialsBuffers,
		MatrixBuffers:   cfg.MatrixBuffers,
		EigenBuffers:    cfg.EigenBuffers,
		ScaleBuffers:    cfg.ScaleBuffers,
		StateCount:      cfg.Dims.StateCount,
		PatternCount:    cfg.Dims.PatternCount,
		CategoryCount:   cfg.Dims.CategoryCount,
		SinglePrecision: cfg.SinglePrecision,
		Threads:         cfg.Threads,
		WorkGroupSize:   cfg.WorkGroupSize,
		DisableFMA:      cfg.DisableFMA,
		Reuse:           cfg.Reuse,
	}
}

// Config rebuilds the engine-side configuration (without observability
// hooks; the worker hosts headless engines).
func (g Geometry) Config() engine.Config {
	return engine.Config{
		TipCount:        g.TipCount,
		PartialsBuffers: g.PartialsBuffers,
		MatrixBuffers:   g.MatrixBuffers,
		EigenBuffers:    g.EigenBuffers,
		ScaleBuffers:    g.ScaleBuffers,
		Dims: kernels.Dims{
			StateCount:    g.StateCount,
			PatternCount:  g.PatternCount,
			CategoryCount: g.CategoryCount,
		},
		SinglePrecision: g.SinglePrecision,
		Threads:         g.Threads,
		WorkGroupSize:   g.WorkGroupSize,
		DisableFMA:      g.DisableFMA,
		Reuse:           g.Reuse,
	}
}

// request is the single wire request shape: a flat union keyed on Op, so one
// gob type covers the whole protocol. Unused fields encode to nothing (gob
// omits zero values), keeping small calls small.
type request struct {
	Op  opCode
	Seq uint64

	// Session identity (opHello). An empty Session is a probe: the worker
	// answers the hello without creating state.
	Session string
	Resume  bool

	// Engine creation (opCreate).
	Geometry Geometry

	// Buffer/index arguments, positional per op (see applyRequest).
	Buf, Buf2, Buf3, Buf4, Buf5, Buf6 int

	// Slice arguments.
	Ints    []int
	Ints2   []int
	Floats  []float64
	Floats2 []float64
	Floats3 []float64
	Ops     []engine.Operation

	// Pattern migration (opDetach/opAttach).
	FromHigh bool
	N        int
	Block    *engine.PatternBlock

	// Trace context (protocol v2). Traced tells the worker to record
	// engine-side spans for this call into its session tracer; TraceReq is
	// the originating served request's identity, stamped onto every span the
	// worker records while executing the call. Both gob-encode to nothing
	// when tracing is off, so the untraced wire format is unchanged.
	Traced   bool
	TraceReq uint64
}

// response is the single wire response shape. Err carries application-level
// engine errors as text; transport errors surface as connection failures.
type response struct {
	Seq    uint64
	Err    string
	F0     float64
	F1     float64
	F2     float64
	Floats []float64
	Name   string
	Block  *engine.PatternBlock
	Hello  *HelloInfo

	// Span drain (opDrainSpans, protocol v2): the worker-side session
	// tracer's retained spans on the worker's clock, plus that clock's "now"
	// at drain time so the client can rebase them into its own timeline.
	Spans    []trace.Span
	NowNanos int64
}

// HelloInfo is the worker's handshake reply: enough for the coordinator to
// derive a default load-balancing share before any measurement exists.
type HelloInfo struct {
	Version int
	// Cores is the worker host's logical CPU count.
	Cores int
	// Resumed reports whether the hello reattached an existing session (its
	// engine state survived the reconnect).
	Resumed bool
	// DebugAddr is the worker's debug/metrics HTTP address ("host:port"),
	// empty when the worker serves none. Coordinators use it to federate the
	// worker's /metrics into a cluster view.
	DebugAddr string
}

// writeMsg gob-encodes v and writes it as one length-prefixed frame,
// returning the total bytes written. A fresh encoder per frame trades a few
// bytes of per-frame type information for framing that can never desync.
func writeMsg(w io.Writer, v any) (int, error) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0}) // length placeholder
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return 0, fmt.Errorf("remoteimpl: encode: %w", err)
	}
	b := buf.Bytes()
	if len(b)-4 > maxFrame {
		return 0, fmt.Errorf("remoteimpl: frame of %d bytes exceeds limit", len(b)-4)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	n, err := w.Write(b)
	return n, err
}

// readMsg reads one length-prefixed frame of at most limit bytes and
// gob-decodes it into v, returning the total bytes read. A longer length
// prefix is an error before anything is allocated.
func readMsg(r io.Reader, v any, limit uint32) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > limit {
		return 4, fmt.Errorf("remoteimpl: frame length %d exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 4, err
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		return 4 + int(n), fmt.Errorf("remoteimpl: decode: %w", err)
	}
	return 4 + int(n), nil
}

// applyRequest executes one wire request against an engine and builds the
// response. It is the single dispatch table of the protocol, shared by the
// worker server (normal execution) and the client's failover path (journal
// replay into the local fallback engine), so replayed semantics are the
// worker's semantics by construction.
func applyRequest(eng engine.Engine, req *request) *response {
	resp := &response{Seq: req.Seq}
	var err error
	switch req.Op {
	case opPing:
		// Liveness only.
	case opName:
		resp.Name = eng.Name()
	case opSetTipStates:
		err = eng.SetTipStates(req.Buf, req.Ints)
	case opSetTipPartials:
		err = eng.SetTipPartials(req.Buf, req.Floats)
	case opSetPartials:
		err = eng.SetPartials(req.Buf, req.Floats)
	case opGetPartials:
		resp.Floats, err = eng.GetPartials(req.Buf)
	case opSetEigen:
		err = eng.SetEigenDecomposition(req.Buf, req.Floats, req.Floats2, req.Floats3)
	case opSetCategoryRates:
		err = eng.SetCategoryRates(req.Floats)
	case opSetCategoryWeights:
		err = eng.SetCategoryWeights(req.Floats)
	case opSetStateFrequencies:
		err = eng.SetStateFrequencies(req.Floats)
	case opSetPatternWeights:
		err = eng.SetPatternWeights(req.Floats)
	case opSetTransitionMatrix:
		err = eng.SetTransitionMatrix(req.Buf, req.Floats)
	case opGetTransitionMatrix:
		resp.Floats, err = eng.GetTransitionMatrix(req.Buf)
	case opUpdateMatrices:
		err = eng.UpdateTransitionMatrices(req.Buf, req.Ints, req.Floats)
	case opUpdatePartials:
		err = eng.UpdatePartials(req.Ops)
	case opResetScale:
		err = eng.ResetScaleFactors(req.Buf)
	case opAccumulateScale:
		err = eng.AccumulateScaleFactors(req.Ints, req.Buf)
	case opRoot:
		resp.F0, err = eng.CalculateRootLogLikelihoods(req.Buf, req.Buf2)
	case opEdge:
		resp.F0, err = eng.CalculateEdgeLogLikelihoods(req.Buf, req.Buf2, req.Buf3, req.Buf4)
	case opUpdateDerivs:
		err = eng.UpdateTransitionDerivatives(req.Buf, req.Ints, req.Ints2, req.Floats)
	case opEdgeDerivs:
		resp.F0, resp.F1, resp.F2, err = eng.CalculateEdgeDerivatives(
			req.Buf, req.Buf2, req.Buf3, req.Buf4, req.Buf5, req.Buf6)
	case opSiteLnLs:
		resp.Floats, err = eng.SiteLogLikelihoods(req.Buf, req.Buf2)
	case opDetach:
		m, ok := eng.(engine.PatternMigrator)
		if !ok {
			err = fmt.Errorf("remoteimpl: engine %s does not support pattern migration", eng.Name())
			break
		}
		resp.Block, err = m.DetachPatterns(req.FromHigh, req.N)
	case opAttach:
		m, ok := eng.(engine.PatternMigrator)
		if !ok {
			err = fmt.Errorf("remoteimpl: engine %s does not support pattern migration", eng.Name())
			break
		}
		err = m.AttachPatterns(req.FromHigh, req.Block)
	default:
		err = fmt.Errorf("remoteimpl: unknown op %d", req.Op)
	}
	if err != nil {
		resp.Err = err.Error()
	}
	return resp
}

// mutates reports whether an op changes worker-side engine state — the ops
// the client journals for failover replay and never retries in place.
func (o opCode) mutates() bool {
	switch o {
	case opSetTipStates, opSetTipPartials, opSetPartials, opSetEigen,
		opSetCategoryRates, opSetCategoryWeights, opSetStateFrequencies,
		opSetPatternWeights, opSetTransitionMatrix, opUpdateMatrices,
		opUpdatePartials, opResetScale, opAccumulateScale,
		opUpdateDerivs, opDetach, opAttach:
		return true
	}
	return false
}

// cloneRequest deep-copies a request for the journal: callers may reuse or
// mutate their argument slices after an engine call returns, so the journal
// must own its memory.
func cloneRequest(req *request) *request {
	c := *req
	c.Ints = append([]int(nil), req.Ints...)
	c.Ints2 = append([]int(nil), req.Ints2...)
	c.Floats = append([]float64(nil), req.Floats...)
	c.Floats2 = append([]float64(nil), req.Floats2...)
	c.Floats3 = append([]float64(nil), req.Floats3...)
	c.Ops = append([]engine.Operation(nil), req.Ops...)
	if req.Block != nil {
		blk := &engine.PatternBlock{
			Patterns:  req.Block.Patterns,
			TipStates: make([][]int32, len(req.Block.TipStates)),
			Partials:  make([][]float64, len(req.Block.Partials)),
			Weights:   append([]float64(nil), req.Block.Weights...),
			Scale:     make([][]float64, len(req.Block.Scale)),
		}
		for i, s := range req.Block.TipStates {
			if s != nil {
				blk.TipStates[i] = append([]int32(nil), s...)
			}
		}
		for i, s := range req.Block.Partials {
			if s != nil {
				blk.Partials[i] = append([]float64(nil), s...)
			}
		}
		for i, s := range req.Block.Scale {
			if s != nil {
				blk.Scale[i] = append([]float64(nil), s...)
			}
		}
		c.Block = blk
	}
	return &c
}

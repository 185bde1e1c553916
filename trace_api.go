package gobeagle

import (
	"fmt"
	"io"

	"gobeagle/internal/multiimpl"
	"gobeagle/internal/remoteimpl"
	"gobeagle/internal/trace"
)

// This file is the public surface of the span tracer (internal/trace): the
// timeline view of the recorder whose aggregates Stats reports. When tracing
// is on, every layer of an instance records spans into per-shard ring buffers —
// the CPU scheduler its batches, dependency levels and per-worker tasks; the
// accelerator framework its kernel launches and host↔device transfers on the
// modeled device clock; multi-device instances their batch barriers,
// per-backend execution, rebalance decisions and pattern migrations — and
// TraceJSON exports the retained window as a Chrome trace-event document
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Tracing is off unless the instance was created with FlagTrace or
// EnableTrace(true) was called. Tracing is the recorder's span gate and
// telemetry its stats gate; with both off an instrumented site costs one
// atomic load.

// EnableTrace switches span collection on or off at runtime. The span
// buffers retain the most recent trace.TraceCapacity spans; Perfetto-scale
// runs should export shortly after the region of interest.
func (in *Instance) EnableTrace(on bool) { in.tr.SetEnabled(on) }

// TraceEnabled reports whether span collection is currently on.
func (in *Instance) TraceEnabled() bool { return in.tr.Enabled() }

// ResetTrace discards all retained spans; the enabled switch is unchanged.
func (in *Instance) ResetTrace() { in.tr.Reset() }

// TraceSpanCount returns the number of currently retained spans.
func (in *Instance) TraceSpanCount() int { return len(in.tr.Snapshot()) }

// TraceSpans returns the retained spans in record order — the raw form of
// TraceJSON, for callers (the serve layer's stitched export) that compose
// several instances' spans into one document.
func (in *Instance) TraceSpans() []trace.Span { return in.tr.Snapshot() }

// TraceEpochNanos returns the wall-clock instant (UnixNano) this instance's
// span timeline starts at, for rebasing its spans onto another timeline.
func (in *Instance) TraceEpochNanos() int64 { return in.tr.EpochNanos() }

// SetTraceRequest tags subsequently recorded spans — across every layer of
// this instance, and across the wire into worker processes — with a served
// request identity. Zero clears the tag. The serve layer brackets each
// engine submission with this so a stitched trace can follow one request
// from admission to worker kernels. One atomic store; safe when tracing is
// off or the instance was built without FlagTrace.
func (in *Instance) SetTraceRequest(id uint64) { in.tr.SetRequest(id) }

// TraceJSON writes the retained spans as a Chrome trace-event JSON document.
// Processes group spans by layer (scheduler, workers, device, multi-device,
// storage, network) and threads carry lanes (worker index, backend index).
// For distributed instances the export is stitched: each remote worker's
// engine-side spans are drained over the wire, rebased into this instance's
// timeline using the drain round trip's clock midpoint, and rendered as a
// separate "remote worker N (addr)" process track, so wire-time gaps appear
// between the client's rpc spans and the worker's apply spans. Note the
// device process is stamped on the modeled device clock, which starts at
// zero — its spans align with each other, not with host-side spans.
func (in *Instance) TraceJSON(w io.Writer) error {
	return trace.WriteStitched(w, in.tr.Snapshot(), in.RemoteTraceProcesses())
}

// RemoteTraceProcesses drains the engine-side spans each remote worker
// recorded for this instance's traced calls, rebased into this instance's
// span timeline and grouped per worker process. It returns nil for local
// instances or when tracing is off, and leaves out a worker whose drain
// failed. Draining clears the worker-side buffers, so each call returns only
// spans recorded since the previous drain.
func (in *Instance) RemoteTraceProcesses() []trace.Process {
	me, ok := in.eng.(*multiimpl.Engine)
	if !ok {
		return nil
	}
	var procs []trace.Process
	idx := 0
	for _, sub := range me.Backends() {
		re, ok := sub.(*remoteimpl.Engine)
		if !ok {
			continue
		}
		spans, err := re.DrainSpans()
		if err == nil && len(spans) > 0 {
			procs = append(procs, trace.Process{
				Name:  fmt.Sprintf("remote worker %d (%s)", idx, re.Addr()),
				Spans: spans,
			})
		}
		idx++
	}
	return procs
}

// newInstanceTracer builds the recorder every instance carries: always
// present so either gate can be toggled at runtime, keeping spans under
// FlagTrace and aggregates under FlagTelemetry.
func newInstanceTracer(flags Flags) *trace.Tracer {
	tr := trace.New()
	tr.SetEnabled(flags&FlagTrace != 0)
	tr.SetStatsEnabled(flags&FlagTelemetry != 0)
	return tr
}

package gobeagle

import (
	"context"
	"net"
	"net/http"
	"strconv"

	"gobeagle/internal/metricsx"
	"gobeagle/internal/trace"
)

// DebugServer is an instance's live debug HTTP server, started by
// Instance.ServeDebug. Close it when done; it does not outlive the process
// on its own. DebugServer implements io.Closer.
type DebugServer struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{} // closed when the Serve goroutine has returned
}

// Addr returns the server's bound address, useful with ":0" listeners.
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately, dropping in-flight requests, and
// waits for the serve goroutine to exit so no handler touches the instance
// after Close returns.
func (s *DebugServer) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

// Shutdown gracefully stops the server: the listener closes immediately, but
// in-flight requests are allowed to finish until the context is cancelled.
// Like Close, it waits for the serve goroutine to exit.
func (s *DebugServer) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// DebugOption customizes the server started by ServeDebug.
type DebugOption func(*debugConfig)

type debugConfig struct {
	pprof bool
}

// WithPprof exposes the net/http/pprof handlers (/debug/pprof/...) on the
// debug server. Off by default: the profiling endpoints reveal runtime
// internals and a CPU profile pauses are not free, so they are strictly
// opt-in.
func WithPprof() DebugOption {
	return func(c *debugConfig) { c.pprof = true }
}

// ServeDebug starts an opt-in debug HTTP server for this instance on addr
// (e.g. "localhost:6060", or "127.0.0.1:0" to pick a free port — read it
// back from Addr). It serves:
//
//	/metrics          live telemetry in the Prometheus text format
//	/debug/vars       expvar-style JSON snapshot of the same counters
//	/debug/rebalance  the multi-device repartition history (JSON)
//	/debug/trace      per-kind span counts and durations from the tracer
//	/debug/pprof/     runtime profiling (only with WithPprof)
//
// The handlers read the instance's telemetry and trace snapshots, which are
// safe against concurrent recording; enable FlagTelemetry and FlagTrace (or
// their runtime toggles) for the endpoints to show live data. The server is
// for diagnostics on trusted networks — it has no authentication.
func (in *Instance) ServeDebug(addr string, opts ...DebugOption) (*DebugServer, error) {
	var cfg debugConfig
	for _, o := range opts {
		o(&cfg)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: metricsx.NewMux(instanceSource{in}, cfg.pprof)}
	s := &DebugServer{srv: srv, ln: ln, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		srv.Serve(ln)
	}()
	return s, nil
}

// instanceSource adapts an Instance to the metricsx.Source views.
type instanceSource struct{ in *Instance }

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (s instanceSource) Metrics() []metricsx.Sample {
	st := s.in.Stats()
	samples := []metricsx.Sample{
		{Name: "gobeagle_info", Help: "instance identity", Type: "gauge",
			Labels: map[string]string{"implementation": st.Implementation, "strategy": st.Strategy},
			Value:  1},
		{Name: "gobeagle_telemetry_enabled", Help: "1 when telemetry collection is on", Type: "gauge",
			Value: boolGauge(st.Enabled)},
		{Name: "gobeagle_trace_enabled", Help: "1 when span tracing is on", Type: "gauge",
			Value: boolGauge(s.in.TraceEnabled())},
		{Name: "gobeagle_batches_total", Help: "UpdatePartials batches recorded", Type: "counter",
			Value: float64(st.Batches)},
		{Name: "gobeagle_flops_total", Help: "accumulated effective floating-point operations", Type: "counter",
			Value: st.TotalFlops},
		{Name: "gobeagle_effective_gflops", Help: "effective GFLOPS over the partials kernel wall time", Type: "gauge",
			Value: st.EffectiveGFLOPS},
		{Name: "gobeagle_trace_spans", Help: "spans currently retained by the tracer", Type: "gauge",
			Value: float64(s.in.TraceSpanCount())},
	}
	for _, k := range st.Kernels {
		labels := map[string]string{"kernel": k.Kernel}
		samples = append(samples,
			metricsx.Sample{Name: "gobeagle_kernel_ops_total", Help: "logical operations per kernel family",
				Type: "counter", Labels: labels, Value: float64(k.Ops)},
			metricsx.Sample{Name: "gobeagle_kernel_calls_total", Help: "timed invocations per kernel family",
				Type: "counter", Labels: labels, Value: float64(k.Calls)},
			metricsx.Sample{Name: "gobeagle_kernel_seconds_total", Help: "total wall time per kernel family",
				Type: "counter", Labels: labels, Value: k.Total.Seconds()},
		)
	}
	if len(st.Backends) > 0 {
		for i, b := range st.Backends {
			labels := map[string]string{"backend": strconv.Itoa(i)}
			samples = append(samples,
				metricsx.Sample{Name: "gobeagle_backend_patterns", Help: "patterns assigned to each backend",
					Type: "gauge", Labels: labels, Value: float64(b.Patterns)},
				metricsx.Sample{Name: "gobeagle_backend_throughput_pattern_ops", Help: "measured backend throughput in pattern-operations per second",
					Type: "gauge", Labels: labels, Value: b.Throughput},
			)
		}
		samples = append(samples,
			metricsx.Sample{Name: "gobeagle_rebalances_total", Help: "executed adaptive repartitions",
				Type: "counter", Value: float64(st.Rebalances)},
			metricsx.Sample{Name: "gobeagle_patterns_migrated_total", Help: "patterns moved by repartitions",
				Type: "counter", Value: float64(st.PatternsMigrated)},
		)
	}
	return samples
}

func (s instanceSource) Vars() map[string]any {
	st := s.in.Stats()
	return map[string]any{
		"implementation":    st.Implementation,
		"strategy":          st.Strategy,
		"telemetry_enabled": st.Enabled,
		"trace_enabled":     s.in.TraceEnabled(),
		"batches":           st.Batches,
		"total_flops":       st.TotalFlops,
		"effective_gflops":  st.EffectiveGFLOPS,
		"kernels":           st.Kernels,
		"backends":          st.Backends,
		"rebalances":        st.Rebalances,
		"patterns_migrated": st.PatternsMigrated,
		"trace_spans":       s.in.TraceSpanCount(),
		"trace_capacity":    trace.TraceCapacity,
	}
}

func (s instanceSource) RebalanceEvents() any {
	return s.in.Stats().RebalanceEvents
}

// TraceKindSummary aggregates the retained spans of one kind for the
// /debug/trace endpoint.
type TraceKindSummary = trace.KindSummary

func (s instanceSource) TraceSummary() any { return s.in.TraceSummary() }

// TraceSummary aggregates the tracer's retained spans per kind: how many
// spans of each kind exist and their summed duration, under the layer names
// the exported timeline uses, ordered by layer and then kind as the timeline
// renders them. Empty when tracing never ran.
func (in *Instance) TraceSummary() []TraceKindSummary { return trace.Summarize(in.tr.Snapshot()) }

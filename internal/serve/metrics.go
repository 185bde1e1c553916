package serve

import (
	"gobeagle/internal/metricsx"
	"gobeagle/internal/trace"
)

// serveSource adapts a Server to the metricsx.Source views, so the daemon's
// /metrics and /debug endpoints render through the same exporter the
// per-instance debug server uses.
type serveSource struct{ s *Server }

func (src serveSource) Metrics() []metricsx.Sample {
	s := src.s
	pool := s.pool.Stats()
	eigens, alignments := s.eigens.stats(), s.alignments.stats()
	samples := []metricsx.Sample{
		{Name: "beagled_requests_total", Help: "evaluate requests admitted", Type: "counter",
			Value: float64(s.requests.Load())},
		{Name: "beagled_rejected_total", Help: "evaluate requests rejected before execution", Type: "counter",
			Labels: map[string]string{"reason": "queue_full"}, Value: float64(s.rejectQueue.Load())},
		{Name: "beagled_rejected_total", Type: "counter",
			Labels: map[string]string{"reason": "quota"}, Value: float64(s.rejectQuota.Load())},
		{Name: "beagled_rejected_total", Type: "counter",
			Labels: map[string]string{"reason": "bad_request"}, Value: float64(s.badRequests.Load())},
		{Name: "beagled_errors_total", Help: "evaluate requests failed during execution", Type: "counter",
			Value: float64(s.evalErrors.Load())},
		{Name: "beagled_inflight", Help: "requests currently being served", Type: "gauge",
			Value: float64(s.inflight.Load())},
		{Name: "beagled_pool_calculators", Help: "warm calculators currently pooled", Type: "gauge",
			Value: float64(pool.Calculators)},
		{Name: "beagled_pool_hits_total", Help: "pool lookups served by a warm calculator", Type: "counter",
			Value: float64(pool.Hits)},
		{Name: "beagled_pool_misses_total", Help: "pool lookups that built a calculator", Type: "counter",
			Value: float64(pool.Misses)},
		{Name: "beagled_pool_evictions_total", Help: "calculators evicted by the LRU cap", Type: "counter",
			Value: float64(pool.Evictions)},
		{Name: "beagled_eigen_cache_hits_total", Help: "eigendecompositions served from the model cache", Type: "counter",
			Value: float64(eigens.Hits)},
		{Name: "beagled_eigen_cache_misses_total", Help: "eigendecompositions computed on cache miss", Type: "counter",
			Value: float64(eigens.Misses)},
		{Name: "beagled_compile_cache_hits_total", Help: "alignments served compressed from the compile cache", Type: "counter",
			Value: float64(alignments.Hits)},
		{Name: "beagled_compile_cache_misses_total", Help: "alignments decoded and compressed on cache miss", Type: "counter",
			Value: float64(alignments.Misses)},
		{Name: "beagled_compile_cache_evictions_total", Help: "alignments evicted by the compile cache's entry and byte bounds", Type: "counter",
			Value: float64(alignments.Evictions)},
		{Name: "beagled_compile_cache_bytes", Help: "bytes of compressed alignments held by the compile cache", Type: "gauge",
			Value: float64(alignments.Bytes)},
		{Name: "beagled_slow_retained", Help: "requests retained by the tail-latency sampler", Type: "gauge",
			Value: float64(len(s.slow.Snapshot()))},
		{Name: "beagled_trace_spans", Help: "spans currently retained by the serve-layer tracer", Type: "gauge",
			Value: float64(len(s.tracer.Snapshot()))},
	}
	for _, c := range pool.PerKey {
		labels := map[string]string{"key": c.Key}
		samples = append(samples,
			metricsx.Sample{Name: "beagled_calc_slots", Help: "slot capacity per warm calculator",
				Type: "gauge", Labels: labels, Value: float64(c.Slots)},
			metricsx.Sample{Name: "beagled_calc_batches_total", Help: "merged scheduler submissions per calculator",
				Type: "counter", Labels: labels, Value: float64(c.Batches)},
			metricsx.Sample{Name: "beagled_calc_requests_total", Help: "requests served per calculator",
				Type: "counter", Labels: labels, Value: float64(c.Requests)},
			metricsx.Sample{Name: "beagled_calc_batch_fill", Help: "mean requests coalesced per batch",
				Type: "gauge", Labels: labels, Value: c.BatchFill},
			metricsx.Sample{Name: "beagled_calc_grows_total", Help: "golden-ratio slot growths per calculator",
				Type: "counter", Labels: labels, Value: float64(c.Grows)},
			metricsx.Sample{Name: "beagled_calc_rebuilds_total", Help: "instance rebuilds per calculator",
				Type: "counter", Labels: labels, Value: float64(c.Rebuilds)},
			metricsx.Sample{Name: "beagled_calc_errors_total", Help: "failed requests per calculator",
				Type: "counter", Labels: labels, Value: float64(c.Errors)},
			metricsx.Sample{Name: "beagled_calc_queue_depth", Help: "requests waiting in the admission queue",
				Type: "gauge", Labels: labels, Value: float64(c.QueueLen)},
		)
	}
	return samples
}

func (src serveSource) Vars() map[string]any {
	s := src.s
	eigens := s.eigens.stats()
	return map[string]any{
		"requests":           s.requests.Load(),
		"rejected_queue":     s.rejectQueue.Load(),
		"rejected_quota":     s.rejectQuota.Load(),
		"bad_requests":       s.badRequests.Load(),
		"eval_errors":        s.evalErrors.Load(),
		"inflight":           s.inflight.Load(),
		"eigen_cache_hits":   eigens.Hits,
		"eigen_cache_misses": eigens.Misses,
		"compile_cache":      s.alignments.stats(),
		"pool":               s.pool.Stats(),
		"max_batch":          s.opts.MaxBatch,
		"quota_rps":          s.opts.QuotaRPS,
		"pool_disabled":      s.opts.DisablePool,
	}
}

// RebalanceEvents is per-instance state; the serving layer has none.
func (src serveSource) RebalanceEvents() any { return nil }

// TraceSummary folds the serve-layer tracer's spans per kind, in the same
// rows and order as an instance debug server's /debug/trace.
func (src serveSource) TraceSummary() any { return trace.Summarize(src.s.tracer.Snapshot()) }

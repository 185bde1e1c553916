// Package serve is the likelihood-as-a-service layer: it exposes the
// library's evaluation pipeline over a small JSON wire API, backed by a pool
// of warm instances keyed on problem shape, each carved into per-request
// slots (a job's slot is its position in the batch; capacity grows by the
// golden ratio, as the sts OnlineCalculator grows its buffers), cross-request
// micro-batching that coalesces compatible small queries into the wide
// scheduler submissions the CPU strategies are good at, admission control
// (bounded queues answering 429 on overload) and per-tenant token-bucket
// quotas. cmd/beagled wraps this package in a daemon; bench/mark's
// serve_http workload load-tests it over HTTP and checks every served answer
// against a dedicated instance.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gobeagle"
	"gobeagle/internal/linalg"
	"gobeagle/internal/metricsx"
	"gobeagle/internal/remoteimpl"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/trace"
)

// Options configures a Server. The zero value is unusable; start from
// DefaultOptions.
type Options struct {
	// MaxBatch caps the requests merged into one scheduler submission. The
	// executor never waits for a batch to fill: it merges whatever queued
	// while the previous batch ran.
	MaxBatch int
	// InitialSlots is the slot capacity a fresh calculator starts with;
	// bursts grow it by the golden ratio up to MaxBatch.
	InitialSlots int
	// QueueDepth bounds each calculator's admission queue; a full queue
	// answers 429.
	QueueDepth int
	// MaxCalculators bounds the warm pool; beyond it the least recently
	// used calculator is evicted and finalized.
	MaxCalculators int
	// MaxTips and MaxPatterns reject oversized requests with 422 before
	// they reach the pool.
	MaxTips     int
	MaxPatterns int
	// Flags are the instance flags pooled calculators run with (threading
	// strategy etc.).
	Flags gobeagle.Flags
	// Threads bounds each pooled instance's worker threads (0 = all).
	Threads int
	// QuotaRPS and QuotaBurst configure per-tenant token buckets;
	// QuotaRPS ≤ 0 disables quotas.
	QuotaRPS   float64
	QuotaBurst int
	// RequestTimeout bounds how long a request may wait for its batch
	// before answering 503.
	RequestTimeout time.Duration
	// ReadHeaderTimeout bounds how long a client may take to finish sending
	// request headers before the connection is dropped; without it a
	// slowloris client trickling one header byte at a time pins a
	// connection (and its goroutine) forever.
	ReadHeaderTimeout time.Duration
	// IdleTimeout closes keep-alive connections that have sat idle this
	// long, bounding the connection table under churny clients.
	IdleTimeout time.Duration
	// DisablePool evaluates every request on a freshly created, immediately
	// finalized instance — the one-instance-per-request ablation the serve
	// benchmark compares against. Admission control and quotas still apply.
	DisablePool bool
	// Workers lists beagleworker addresses. When non-empty, pooled
	// calculators evaluate on a distributed instance whose site patterns
	// are sharded across the local host and these worker processes (the
	// beagled -workers flag). The workers must be reachable when the first
	// batch builds its instance.
	Workers []string
	// Trace propagates span tracing into pooled instances — and across the
	// wire into worker processes — so /debug/trace.json exports one
	// stitched timeline from HTTP admission down to engine kernels. The
	// serve layer's own spans are always recorded; this switch only
	// controls the engine-side layers, whose disabled path stays one
	// atomic load per instrumented site.
	Trace bool
	// Pprof exposes net/http/pprof under /debug/pprof/ on the server's
	// debug mux (the beagled -pprof flag). Off by default: profiling
	// endpoints are strictly opt-in.
	Pprof bool
	// SlowN is how many slowest requests the tail-latency sampler retains
	// for /debug/slow; 0 means the default (16).
	SlowN int
	// Logger receives structured lifecycle and request-failure logs; nil
	// discards them.
	Logger *slog.Logger
}

// DefaultOptions returns the daemon's default tuning.
func DefaultOptions() Options {
	return Options{
		MaxBatch:          32,
		InitialSlots:      4,
		QueueDepth:        1024,
		MaxCalculators:    8,
		MaxTips:           256,
		MaxPatterns:       8192,
		Flags:             gobeagle.FlagThreadingThreadPoolHybrid,
		QuotaRPS:          0,
		QuotaBurst:        64,
		RequestTimeout:    30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// Server is the serving layer: an http.Handler exposing /v1/evaluate and
// /v1/health plus the debug surface (/metrics, /debug/*) through the
// library's metricsx exporter.
type Server struct {
	opts   Options
	pool   *Pool
	quota  *TokenBuckets
	tracer *trace.Tracer
	mux    *http.ServeMux
	start  time.Time
	slow   *SlowSampler
	logger *slog.Logger
	reqSeq atomic.Uint64 // generated request-id sequence

	// fedTargets caches worker address → resolved debug-scrape URL for the
	// /cluster/metrics federation endpoint; failed probes are not cached so
	// a worker whose debug server starts late is still found.
	fedMu      sync.Mutex
	fedTargets map[string]string

	// The compile step's content-addressed memos, shared by all tenants:
	// eigendecompositions by exact model spec (modelKey) and compressed
	// alignments by content digest (alignmentFor).
	eigens     *lru[string, *linalg.EigenDecomposition]
	alignments *lru[[sha256.Size]byte, *alignment]

	requests    atomic.Uint64 // admitted evaluate requests
	rejectQueue atomic.Uint64 // 429: queue full
	rejectQuota atomic.Uint64 // 429: tenant quota
	badRequests atomic.Uint64 // 4xx parse/validation failures
	evalErrors  atomic.Uint64 // 5xx evaluation failures
	inflight    atomic.Int64
}

// NewServer builds the serving layer. Zero-valued option fields are filled
// from DefaultOptions.
func NewServer(opts Options) *Server {
	def := DefaultOptions()
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = def.MaxBatch
	}
	if opts.InitialSlots <= 0 {
		opts.InitialSlots = def.InitialSlots
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = def.QueueDepth
	}
	if opts.MaxCalculators <= 0 {
		opts.MaxCalculators = def.MaxCalculators
	}
	if opts.MaxTips <= 0 {
		opts.MaxTips = def.MaxTips
	}
	if opts.MaxPatterns <= 0 {
		opts.MaxPatterns = def.MaxPatterns
	}
	if opts.QuotaBurst <= 0 {
		opts.QuotaBurst = def.QuotaBurst
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = def.RequestTimeout
	}
	if opts.ReadHeaderTimeout <= 0 {
		opts.ReadHeaderTimeout = def.ReadHeaderTimeout
	}
	if opts.IdleTimeout <= 0 {
		opts.IdleTimeout = def.IdleTimeout
	}
	if opts.SlowN <= 0 {
		opts.SlowN = 16
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	tr := trace.New()
	tr.SetEnabled(true)
	s := &Server{
		opts:       opts,
		tracer:     tr,
		quota:      NewTokenBuckets(opts.QuotaRPS, opts.QuotaBurst),
		start:      time.Now(),
		slow:       NewSlowSampler(opts.SlowN),
		logger:     logger,
		fedTargets: map[string]string{},
		eigens:     newLRU[string, *linalg.EigenDecomposition](maxEigenCache, maxCompileCacheBytes),
		alignments: newLRU[[sha256.Size]byte, *alignment](maxAlignmentCache, maxCompileCacheBytes),
	}
	s.pool = NewPool(opts, tr)
	s.mux = s.buildMux()
	return s
}

// Options returns the server's effective (defaulted) options.
func (s *Server) Options() Options { return s.opts }

// Close tears down the pool, finalizing every warm instance.
func (s *Server) Close() { s.pool.Close() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	debug := metricsx.NewMux(serveSource{s}, s.opts.Pprof)
	mux.Handle("/metrics", debug)
	mux.Handle("/debug/", debug)
	mux.HandleFunc("/debug/slow", s.handleSlow)
	mux.HandleFunc("/debug/trace.json", s.handleTraceJSON)
	mux.HandleFunc("/cluster/metrics", s.handleClusterMetrics)
	mux.HandleFunc("/v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("/v1/health", s.handleHealth)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "beagled — likelihood-as-a-service")
		fmt.Fprintln(w, "  POST /v1/evaluate      evaluate a tree (JSON)")
		fmt.Fprintln(w, "  GET  /v1/health        liveness and pool summary")
		fmt.Fprintln(w, "  GET  /metrics          Prometheus text metrics")
		fmt.Fprintln(w, "  GET  /cluster/metrics  federated cluster metrics (self + workers)")
		fmt.Fprintln(w, "  GET  /debug/vars       expvar-style JSON variables")
		fmt.Fprintln(w, "  GET  /debug/trace      serve-layer span summary")
		fmt.Fprintln(w, "  GET  /debug/trace.json stitched Chrome trace (serve + engines + workers)")
		fmt.Fprintln(w, "  GET  /debug/slow       slowest retained requests with phase timings")
	})
	return mux
}

// maxBodyBytes bounds an evaluate request body.
const maxBodyBytes = 16 << 20

// errorReply is the JSON error body.
type errorReply struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	// The effective request id is echoed on every response — rejections
	// included — so any answer the client sees, even a 429, names the
	// request that caused it.
	rid := r.Header.Get(RequestIDHeader)
	echo := func() string {
		id, _ := s.resolveRequestID(rid)
		w.Header().Set(RequestIDHeader, id)
		return id
	}
	if r.Method != http.MethodPost {
		echo()
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorReply{"POST only"})
		return
	}
	var req EvaluateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		echo()
		s.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorReply{fmt.Sprintf("decode: %v", err)})
		return
	}
	if rid == "" {
		rid = req.RequestID // body-carried id, for header-less clients
	}
	// Resolve (possibly mint) the effective id up front so the handler owns
	// it for headers and logs; Evaluate maps the same wire string to the
	// same trace id.
	rid, _ = s.resolveRequestID(rid)
	req.RequestID = rid
	tenant := r.Header.Get("X-Beagle-Tenant")
	if tenant == "" {
		tenant = req.Tenant
	}
	if tenant == "" {
		tenant = "default"
	}
	req.Tenant = tenant
	if ok, retry := s.quota.Allow(tenant, time.Now()); !ok {
		id := echo()
		s.rejectQuota.Add(1)
		secs := int(retry/time.Second) + 1
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		s.logger.Debug("request over quota", "request", id, "tenant", tenant)
		writeJSON(w, http.StatusTooManyRequests, errorReply{fmt.Sprintf("tenant %q over quota", tenant)})
		return
	}
	resp, code, err := s.Evaluate(r.Context(), &req)
	w.Header().Set(RequestIDHeader, rid)
	if err != nil {
		s.logger.Warn("evaluate failed",
			"request", rid, "tenant", tenant, "status", code, "err", err.Error())
		writeJSON(w, code, errorReply{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// Evaluate runs one request through compilation, admission and the pool (or
// the per-request ablation path), returning the response or an HTTP status
// and error. Exported so in-process clients (benchmarks, tests) can bypass
// HTTP. The request's (possibly empty) RequestID is resolved to the
// effective wire id, returned in the response; every span recorded on the
// request's behalf — down to worker-process kernels when Options.Trace is
// on — carries its trace id. The request struct is never written, so
// callers may share one across concurrent calls.
func (s *Server) Evaluate(ctx context.Context, req *EvaluateRequest) (*EvaluateResponse, int, error) {
	start := time.Now()
	tstart := s.tracer.Now()
	rid, traceID := s.resolveRequestID(req.RequestID)

	// The whole-lifetime span and slow-sampler entry are emitted however the
	// request leaves; the named fields below are filled in along the way.
	status := http.StatusOK
	var j *job
	var key string
	var compileNs int64
	defer func() {
		s.tracer.Record(trace.Span{Kind: trace.KindServeRequest, Lane: -1,
			Start: tstart, Dur: s.tracer.Now() - tstart,
			Arg0: int64(status), Arg1: batchedOf(j), Batch: batchOf(j), Req: traceID})
		entry := SlowEntry{
			RequestID: rid, TraceID: traceID, Tenant: req.Tenant, Key: key,
			Status: status, Batched: int(batchedOf(j)), Batch: batchOf(j),
			Start: start, TotalUs: time.Since(start).Microseconds(),
			Phases: []SlowPhase{{Name: "compile", DurUs: compileNs / 1e3}},
		}
		if jobFinished(j) {
			entry.Phases = append(entry.Phases, SlowPhase{
				Name: "pool", StartUs: compileNs / 1e3,
				DurUs: (j.waitNs + j.runNs) / 1e3,
				Children: []SlowPhase{
					{Name: "queue", StartUs: compileNs / 1e3, DurUs: j.waitNs / 1e3},
					{Name: "run", StartUs: (compileNs + j.waitNs) / 1e3, DurUs: j.runNs / 1e3},
				},
			})
		}
		s.slow.Observe(entry)
	}()

	c, err := s.compile(req)
	compileNs = time.Since(start).Nanoseconds()
	s.tracer.Record(trace.Span{Kind: trace.KindServeCompile, Lane: -1,
		Start: tstart, Dur: compileNs, Req: traceID})
	if err != nil {
		s.badRequests.Add(1)
		status = http.StatusUnprocessableEntity
		return nil, status, err
	}
	key = c.key.String()
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	if s.opts.DisablePool {
		resp, err := s.evaluateDirect(c)
		if err != nil {
			s.evalErrors.Add(1)
			status = http.StatusInternalServerError
			return nil, status, err
		}
		resp.RequestID = rid
		return resp, http.StatusOK, nil
	}

	j = &job{c: c, reqID: traceID, enq: time.Now(), done: make(chan struct{})}
	hit := false
	submitted := false
	// An evicted calculator rejects new jobs while draining; re-resolving
	// the key builds a fresh one, so one retry suffices.
	for attempt := 0; attempt < 2; attempt++ {
		calc, wasHit := s.pool.Get(c.key)
		err = calc.submit(j)
		if err == nil {
			hit = wasHit
			submitted = true
			break
		}
		if errors.Is(err, errQueueFull) {
			s.rejectQueue.Add(1)
			status = http.StatusTooManyRequests
			return nil, status, fmt.Errorf("serve: overloaded (queue full for %s)", c.key)
		}
	}
	if !submitted {
		s.evalErrors.Add(1)
		status = http.StatusServiceUnavailable
		return nil, status, fmt.Errorf("serve: calculator unavailable for %s", c.key)
	}

	timeout := time.NewTimer(s.opts.RequestTimeout)
	defer timeout.Stop()
	select {
	case <-j.done:
	case <-ctx.Done():
		// The batch may still execute; the response is simply dropped.
		status = statusClientClosed
		return nil, status, ctx.Err()
	case <-timeout.C:
		s.evalErrors.Add(1)
		status = http.StatusServiceUnavailable
		return nil, status, fmt.Errorf("serve: request timed out after %v", s.opts.RequestTimeout)
	}
	if j.err != nil {
		s.evalErrors.Add(1)
		status = http.StatusInternalServerError
		return nil, status, j.err
	}
	j.resp.Pool.Hit = hit
	j.resp.RequestID = rid
	return j.resp, http.StatusOK, nil
}

// jobFinished reports whether a job's executor handoff completed, i.e. its
// executor-written fields are safe to read. Nil jobs (rejections, the
// ablation mode) and jobs abandoned by timeout or client cancel — which the
// executor may still be writing — report false.
func jobFinished(j *job) bool {
	if j == nil {
		return false
	}
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// batchedOf and batchOf read a finished job's batch linkage, zero whenever
// the job never (observably) ran.
func batchedOf(j *job) int64 {
	if !jobFinished(j) {
		return 0
	}
	return int64(j.batched)
}

func batchOf(j *job) uint64 {
	if !jobFinished(j) {
		return 0
	}
	return j.batchID
}

// statusClientClosed is nginx's 499, the conventional "client closed
// request" status.
const statusClientClosed = 499

// evaluateDirect is the one-instance-per-request path: build, load,
// evaluate, finalize. This is both the ablation baseline for the serve
// benchmark and the fallback mode for debugging pooled execution.
func (s *Server) evaluateDirect(c *compiled) (*EvaluateResponse, error) {
	flags := s.opts.Flags
	if c.key.Single {
		flags |= gobeagle.FlagPrecisionSingle
	}
	nodes := 2*c.tips - 1
	inst, err := gobeagle.NewInstance(gobeagle.Config{
		TipCount:        c.tips,
		PartialsBuffers: nodes,
		MatrixBuffers:   nodes + derivSlots,
		EigenBuffers:    1,
		StateCount:      c.key.States,
		PatternCount:    c.patterns,
		CategoryCount:   c.key.Categories,
		ResourceID:      0,
		Flags:           flags,
		Threads:         s.opts.Threads,
	})
	if err != nil {
		return nil, err
	}
	defer inst.Finalize()
	return evaluateOn(inst, c, nodes)
}

// evaluateOn drives one compiled request on a dedicated instance laid out
// with tree-native buffer indices — the reference execution pooled serving
// must match bit-for-bit.
func evaluateOn(inst *gobeagle.Instance, c *compiled, nodes int) (*EvaluateResponse, error) {
	states := make([]int, c.patterns) // SetTipStates copies
	for tip := 0; tip < c.tips; tip++ {
		c.aln.tipStates(c.rowOf[tip], states)
		if err := inst.SetTipStates(tip, states); err != nil {
			return nil, err
		}
	}
	steps := []error{
		inst.SetEigenDecomposition(0, c.eigen.Values, c.eigen.Vectors.Data, c.eigen.InverseVectors.Data),
		inst.SetCategoryRates(c.rates),
		inst.SetCategoryWeights(c.catWeights),
		inst.SetStateFrequencies(c.freqs),
		inst.SetPatternWeights(c.aln.weights),
	}
	for _, err := range steps {
		if err != nil {
			return nil, err
		}
	}
	mats := make([]int, len(c.sched.Matrices))
	lens := make([]float64, len(c.sched.Matrices))
	for i, mu := range c.sched.Matrices {
		mats[i], lens[i] = mu.Matrix, mu.Length
	}
	if err := inst.UpdateTransitionMatrices(0, mats, lens); err != nil {
		return nil, err
	}
	ops := make([]gobeagle.Operation, len(c.sched.Ops))
	for i, op := range c.sched.Ops {
		ops[i] = gobeagle.Operation{
			Destination: op.Dest, DestScaleWrite: gobeagle.None, DestScaleRead: gobeagle.None,
			Child1: op.Child1, Child1Matrix: op.Child1Mat,
			Child2: op.Child2, Child2Matrix: op.Child2Mat,
		}
	}
	if err := inst.UpdatePartials(ops); err != nil {
		return nil, err
	}
	lnL, err := inst.CalculateRootLogLikelihoods(c.sched.Root, gobeagle.None)
	if err != nil {
		return nil, err
	}
	resp := &EvaluateResponse{
		LogLikelihood: lnL,
		Tips:          c.tips, Sites: c.sites, Patterns: c.patterns,
		Pool: PoolInfo{Key: c.key.String(), Batched: 1},
	}
	if c.wantSite {
		perPattern, err := inst.SiteLogLikelihoods(c.sched.Root, gobeagle.None)
		if err != nil {
			return nil, err
		}
		out := make([]float64, c.sites)
		for site, p := range c.aln.siteOf {
			out[site] = perPattern[p]
		}
		resp.SiteLogLikelihoods = out
	}
	if c.wantDeriv {
		d1m, d2m, sum := nodes, nodes+1, nodes+2
		if err := inst.UpdateTransitionMatrices(0, []int{sum}, []float64{c.rootLen}); err != nil {
			return nil, err
		}
		if err := inst.UpdateTransitionDerivatives(0, []int{d1m}, []int{d2m}, []float64{c.rootLen}); err != nil {
			return nil, err
		}
		_, d1, d2, err := inst.CalculateEdgeDerivatives(c.rootLeft, c.rootRight, sum, d1m, d2m, gobeagle.None)
		if err != nil {
			return nil, err
		}
		resp.D1, resp.D2, resp.RootBranch = d1, d2, c.rootLen
	}
	return resp, nil
}

// Bounds of the compile caches: entries each, and bytes each.
const (
	maxEigenCache        = 256
	maxAlignmentCache    = 256
	maxCompileCacheBytes = 64 << 20
)

// eigenFor serves the model's eigendecomposition from the cache keyed by its
// exact spec, decomposing on miss.
func (s *Server) eigenFor(spec ModelSpec, model *substmodel.Model) (*linalg.EigenDecomposition, error) {
	key := modelKey(spec)
	if ed, ok := s.eigens.get(key); ok {
		return ed, nil
	}
	ed, err := model.Eigen()
	if err != nil {
		return nil, err
	}
	n := int64(model.StateCount)
	s.eigens.add(key, ed, int64(len(key))+8*(n+2*n*n))
	return ed, nil
}

// healthReply is the GET /v1/health body.
type healthReply struct {
	Status   string    `json:"status"`
	UptimeS  float64   `json:"uptime_s"`
	Inflight int64     `json:"inflight"`
	Pool     PoolStats `json:"pool"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthReply{
		Status:   "ok",
		UptimeS:  time.Since(s.start).Seconds(),
		Inflight: s.inflight.Load(),
		Pool:     s.pool.Stats(),
	})
}

// handleSlow serves the tail-latency sampler: the N slowest requests seen so
// far, slowest first, each with its phase tree.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slow.Snapshot())
}

// handleTraceJSON exports one stitched Chrome trace: the serve layer's own
// spans, every pooled instance's engine spans rebased onto the serve
// timeline, and — for distributed pools — each worker process's spans
// drained over the wire, as separate process tracks. Loading the result in
// Perfetto shows a request travel from HTTP admission through queueing and
// batching into scheduler levels and, across the wire-time gap, into worker
// kernels, all sharing args.req.
func (s *Server) handleTraceJSON(w http.ResponseWriter, r *http.Request) {
	local := s.tracer.Snapshot()
	var procs []trace.Process
	serveEpoch := s.tracer.EpochNanos()
	for _, pi := range s.pool.Instances() {
		// Each instance's tracer started its clock at a different wall
		// instant; the epoch difference rebases its spans onto the serve
		// tracer's timeline. Device-layer spans stay on the modeled device
		// clock, as TraceJSON documents.
		delta := pi.Inst.TraceEpochNanos() - serveEpoch
		for _, sp := range pi.Inst.TraceSpans() {
			if sp.Kind.Layer() != trace.LayerDevice {
				sp.Start += delta
			}
			local = append(local, sp)
		}
		for _, p := range pi.Inst.RemoteTraceProcesses() {
			for i := range p.Spans {
				if p.Spans[i].Kind.Layer() != trace.LayerDevice {
					p.Spans[i].Start += delta
				}
			}
			procs = append(procs, p)
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := trace.WriteStitched(w, local, procs); err != nil {
		s.logger.Warn("trace export failed", "err", err.Error())
	}
}

// handleClusterMetrics federates the daemon's own metrics with a live scrape
// of every configured worker's debug endpoint, each series labeled with its
// origin — one scrape for the whole cluster.
func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	fed := &metricsx.Federator{UpMetric: "beagled_cluster_scrape_up"}
	if err := fed.WriteCluster(w, serveSource{s}.Metrics(), "beagled", s.workerTargets()); err != nil {
		s.logger.Warn("cluster metrics federation failed", "err", err.Error())
	}
}

// workerTargets resolves the configured worker addresses to scrape targets.
// A worker advertises its debug address in its wire hello; the stateless
// probe that reads it runs once per worker and is cached on success. Workers
// without a debug server (or unreachable ones) stay in the target list with
// an empty URL, which the federator reports as scrape-up 0.
func (s *Server) workerTargets() []metricsx.Target {
	s.fedMu.Lock()
	defer s.fedMu.Unlock()
	targets := make([]metricsx.Target, 0, len(s.opts.Workers))
	for _, addr := range s.opts.Workers {
		url, ok := s.fedTargets[addr]
		if !ok {
			if hello, err := remoteimpl.Probe(addr, 3*time.Second); err == nil && hello.DebugAddr != "" {
				url = "http://" + hello.DebugAddr + "/metrics"
				s.fedTargets[addr] = url
			}
		}
		targets = append(targets, metricsx.Target{Label: addr, URL: url})
	}
	return targets
}

// ListenAndServe binds addr, optionally reports the bound address through
// ready, and serves until the context is cancelled, then drains in-flight
// requests and finalizes the pool.
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	s.logger.Info("serving", "addr", ln.Addr().String(),
		"max_batch", s.opts.MaxBatch, "workers", len(s.opts.Workers), "trace", s.opts.Trace)
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: s.opts.ReadHeaderTimeout,
		IdleTimeout:       s.opts.IdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err = srv.Shutdown(shutCtx)
		<-errc
	case err = <-errc:
	}
	s.Close()
	s.logger.Info("drained",
		"requests", s.requests.Load(), "rejected_queue", s.rejectQueue.Load(),
		"rejected_quota", s.rejectQuota.Load(), "errors", s.evalErrors.Load())
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

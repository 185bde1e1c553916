package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gobeagle"
	"gobeagle/internal/trace"
)

// derivSlots is the number of extra matrix buffers reserved per slot beyond
// the 2·maxTips−1 branch matrices: the root-branch first- and second-
// derivative matrices and the summed root-branch transition matrix.
const derivSlots = 3

// job is one admitted request travelling through a calculator's batcher.
// reqID tags the spans recorded on the job's behalf; batchID, batched and
// the wait/run durations are written by the executor before done closes and
// feed the whole-request span and the tail-latency sampler.
type job struct {
	c     *compiled
	reqID uint64
	enq   time.Time
	resp  *EvaluateResponse
	err   error
	done  chan struct{}

	batchID uint64
	batched int
	waitNs  int64
	runNs   int64
}

// Calculator owns one warm, wide instance shared by every request of a pool
// key, carved into slots: slot s holds a private range of tip, internal-
// partials, matrix and eigen buffers sized for the key's tip bucket, so
// compatible requests evaluate side by side in one scheduler submission.
// Slots are recycled through a SlotAllocator (get/free LIFO, golden-ratio
// growth) exactly as the sts OnlineCalculator recycles buffer ids.
//
// A single executor goroutine drains the queue, coalescing up to MaxBatch
// requests that queued while the previous batch ran into one merged
// UpdatePartials submission; per-request state (tips, model, matrices,
// pattern weights) is loaded around it. All instance access happens on the
// executor, so the instance's single-goroutine contract holds.
type Calculator struct {
	key   PoolKey
	opts  Options
	tr    *trace.Tracer
	queue chan *job

	closing chan struct{} // signals the executor to drain and finalize
	closed  chan struct{} // closed when the executor has finalized
	once    sync.Once

	// Executor-owned state. instPub mirrors inst for concurrent readers
	// (the stitched trace export walks live instances' span buffers, which
	// are safe against concurrent recording); it is cleared before the
	// executor finalizes an instance.
	inst    *gobeagle.Instance
	instPub atomic.Pointer[gobeagle.Instance]
	slots   *SlotAllocator
	built   int // slot capacity the current instance was built for

	// Counters read concurrently by the metrics endpoints.
	batches   atomic.Uint64 // merged submissions executed
	requests  atomic.Uint64 // requests served
	grows     atomic.Uint64 // golden-ratio instance rebuilds
	rebuilds  atomic.Uint64 // total instance (re)builds
	batchFill atomic.Uint64 // sum of batch sizes (fill = batchFill/batches)
	errors    atomic.Uint64
	lastUsed  atomic.Int64 // unix nanos of the last completed batch
	slotCap   atomic.Int64 // slots.Capacity() mirrored for concurrent readers
}

// newCalculator builds a cold calculator for one pool key; the caller starts
// its executor with go c.run(). The instance itself is built lazily on the
// first batch.
func newCalculator(key PoolKey, opts Options, tr *trace.Tracer) *Calculator {
	c := &Calculator{
		key:     key,
		opts:    opts,
		tr:      tr,
		queue:   make(chan *job, opts.QueueDepth),
		closing: make(chan struct{}),
		closed:  make(chan struct{}),
		slots:   NewSlotAllocator(opts.InitialSlots),
	}
	c.lastUsed.Store(time.Now().UnixNano())
	c.slotCap.Store(int64(c.slots.Capacity()))
	return c
}

// submit enqueues a job, failing fast when the queue is full (admission
// control: the caller maps errQueueFull to 429) or the calculator is being
// torn down (the caller re-resolves the pool key).
var (
	errQueueFull = fmt.Errorf("serve: calculator queue full")
	errClosed    = fmt.Errorf("serve: calculator closed")
)

func (c *Calculator) submit(j *job) error {
	select {
	case <-c.closing:
		return errClosed
	default:
	}
	select {
	case c.queue <- j:
		return nil
	default:
		return errQueueFull
	}
}

// close asks the executor to drain queued jobs and finalize the instance;
// it does not wait. Jobs already queued are still served.
func (c *Calculator) close() {
	c.once.Do(func() { close(c.closing) })
}

// wait blocks until the executor has finalized the instance.
func (c *Calculator) wait() { <-c.closed }

// run is the executor loop. It is work-conserving: it takes one job, sweeps
// in whatever else is already queued up to MaxBatch, and runs. Batches form
// exactly when requests arrive while a batch is running — which is when
// merging buys throughput — and an idle executor never holds a request.
func (c *Calculator) run() {
	defer close(c.closed)
	for {
		var first *job
		select {
		case first = <-c.queue:
		case <-c.closing:
			c.drain()
			return
		}
		batch := []*job{first}
	sweep:
		for len(batch) < c.opts.MaxBatch {
			select {
			case j := <-c.queue:
				batch = append(batch, j)
			default:
				break sweep
			}
		}
		c.runBatch(batch)
	}
}

// drain serves whatever was queued before close, then finalizes.
func (c *Calculator) drain() {
	for {
		select {
		case j := <-c.queue:
			c.runBatch([]*job{j})
		default:
			if c.inst != nil {
				c.instPub.Store(nil)
				c.inst.Finalize()
				c.inst = nil
			}
			return
		}
	}
}

// Slot buffer layout within the shared instance. The tip region of the
// engine is [0, built·maxTips); slot s owns tips [s·maxTips, (s+1)·maxTips),
// internal partials built·maxTips + s·(maxTips−1) + k, matrices
// s·matStride + m, and eigen slot s.
func (c *Calculator) matStride() int { return 2*c.key.Tips - 1 + derivSlots }

func (c *Calculator) mapPartials(slot, idx, tips int) int {
	if idx < tips {
		return slot*c.key.Tips + idx
	}
	return c.built*c.key.Tips + slot*(c.key.Tips-1) + (idx - tips)
}

func (c *Calculator) mapMatrix(slot, m int) int { return slot*c.matStride() + m }

// derivMats returns the slot's (d1, d2, summed-branch) matrix buffer ids.
func (c *Calculator) derivMats(slot int) (d1, d2, sum int) {
	base := slot*c.matStride() + 2*c.key.Tips - 1
	return base, base + 1, base + 2
}

// rebuild replaces the instance with one sized for the current slot
// capacity. No partials survive a rebuild — slots hold no cross-request
// state, unlike the sts exemplar's persistent ids, so nothing is copied.
func (c *Calculator) rebuild() error {
	if c.inst != nil {
		c.instPub.Store(nil)
		c.inst.Finalize()
		c.inst = nil
	}
	n := c.slots.Capacity()
	flags := c.key.Flags
	if c.opts.Trace {
		flags |= gobeagle.FlagTrace
	}
	if c.key.Single {
		flags |= gobeagle.FlagPrecisionSingle
	}
	cfg := gobeagle.Config{
		TipCount:        n * c.key.Tips,
		PartialsBuffers: n*c.key.Tips + n*(c.key.Tips-1),
		MatrixBuffers:   n * c.matStride(),
		EigenBuffers:    n,
		ScaleBuffers:    0,
		StateCount:      c.key.States,
		PatternCount:    c.key.Patterns,
		CategoryCount:   c.key.Categories,
		ResourceID:      0,
		Flags:           flags,
		Threads:         c.opts.Threads,
	}
	var inst *gobeagle.Instance
	var err error
	if len(c.opts.Workers) > 0 {
		inst, err = gobeagle.NewDistributedInstance(cfg, c.opts.Workers, []int{0}, nil)
	} else {
		inst, err = gobeagle.NewInstance(cfg)
	}
	if err != nil {
		return err
	}
	c.inst = inst
	c.instPub.Store(inst)
	c.built = n
	c.rebuilds.Add(1)
	return nil
}

// runBatch executes one micro-batch: grow the slot space to fit, load every
// request into its slot, submit the merged operation list as one scheduler
// batch, then integrate each request's root separately.
func (c *Calculator) runBatch(batch []*job) {
	var tstart int64
	var batchID uint64
	bstart := time.Now()
	traceOn := c.tr != nil && c.tr.Enabled()
	if traceOn {
		tstart = c.tr.Now()
		batchID = c.tr.NextBatch()
	}

	grew := false
	for c.slots.Capacity() < len(batch) {
		c.slots.Grow()
		grew = true
	}
	c.slotCap.Store(int64(c.slots.Capacity()))
	if c.inst == nil || grew || c.built != c.slots.Capacity() {
		if grew {
			c.grows.Add(1)
		}
		if err := c.rebuild(); err != nil {
			c.failBatch(batch, err)
			return
		}
	}

	var merged []gobeagle.Operation
	live := batch[:0:0]
	var liveSlots []int
	for i, j := range batch {
		j.batchID = batchID
		j.batched = len(batch)
		j.waitNs = bstart.Sub(j.enq).Nanoseconds()
		if traceOn {
			now := c.tr.Now()
			wait := time.Since(j.enq).Nanoseconds()
			c.tr.Record(trace.Span{Kind: trace.KindServeWait, Lane: int32(i),
				Start: now - wait, Dur: wait, Arg0: int64(j.c.patterns),
				Batch: batchID, Req: j.reqID})
		}
		slot := c.slots.Get()
		if slot < 0 {
			// Unreachable: capacity was grown to len(batch) above and every
			// slot is free between batches.
			j.err = fmt.Errorf("serve: slot space exhausted")
			continue
		}
		// Tag the engine-side spans this job's slot loads record — and, over
		// the wire, the worker-side spans — with the job's request identity.
		c.inst.SetTraceRequest(j.reqID)
		if err := c.loadJob(slot, j.c); err != nil {
			j.err = err
			c.errors.Add(1)
			c.slots.Free(slot)
			j.runNs = time.Since(bstart).Nanoseconds()
			continue
		}
		for _, op := range j.c.sched.Ops {
			merged = append(merged, gobeagle.Operation{
				Destination:    c.mapPartials(slot, op.Dest, j.c.tips),
				DestScaleWrite: gobeagle.None,
				DestScaleRead:  gobeagle.None,
				Child1:         c.mapPartials(slot, op.Child1, j.c.tips),
				Child1Matrix:   c.mapMatrix(slot, op.Child1Mat),
				Child2:         c.mapPartials(slot, op.Child2, j.c.tips),
				Child2Matrix:   c.mapMatrix(slot, op.Child2Mat),
			})
		}
		j.resp = &EvaluateResponse{
			Tips: j.c.tips, Sites: j.c.sites, Patterns: j.c.patterns,
			Pool: PoolInfo{
				Key:        c.key.String(),
				Batched:    len(batch),
				Slot:       slot,
				WaitMicros: time.Since(j.enq).Microseconds(),
			},
		}
		live = append(live, j)
		liveSlots = append(liveSlots, slot)
	}

	if len(live) > 0 {
		// The merged submission computes every job at once; attribute its
		// engine spans to the batch leader (the oldest request).
		c.inst.SetTraceRequest(live[0].reqID)
		if err := c.inst.UpdatePartials(merged); err != nil {
			for _, j := range live {
				j.err = err
				j.runNs = time.Since(bstart).Nanoseconds()
			}
			c.errors.Add(uint64(len(live)))
			live = live[:0]
		}
	}

	for i, j := range live {
		c.inst.SetTraceRequest(j.reqID)
		if err := c.integrate(liveSlots[i], j); err != nil {
			j.err = err
			c.errors.Add(1)
		} else {
			c.requests.Add(1)
		}
		c.slots.Free(liveSlots[i])
		j.runNs = time.Since(bstart).Nanoseconds()
	}
	c.inst.SetTraceRequest(0)

	c.batches.Add(1)
	c.batchFill.Add(uint64(len(batch)))
	c.lastUsed.Store(time.Now().UnixNano())
	if traceOn {
		c.tr.Record(trace.Span{Kind: trace.KindServeBatch, Lane: -1,
			Start: tstart, Dur: c.tr.Now() - tstart, Batch: batchID,
			Arg0: int64(len(batch)), Arg1: int64(c.slots.Capacity())})
	}
	// Release the jobs only now: a caller that reads Stats or scrapes
	// /metrics the moment its answer arrives must find its batch counted.
	for _, j := range batch {
		close(j.done)
	}
}

// failBatch fails every job of a batch with the same error.
func (c *Calculator) failBatch(batch []*job, err error) {
	for _, j := range batch {
		j.err = err
		close(j.done)
	}
	c.errors.Add(uint64(len(batch)))
}

// loadJob pushes one request's data into its slot: padded tip states, the
// eigendecomposition, category rates and the per-branch transition matrices
// (plus the root-branch derivative matrices when requested). Pattern
// positions beyond the request's count are padded with the gap state, whose
// weight-zero contribution leaves the integrated likelihood bit-identical
// to a dedicated instance.
func (c *Calculator) loadJob(slot int, req *compiled) error {
	inst := c.inst
	pad := c.key.Patterns
	// SetTipStates copies, so one scratch serves every tip: the request's
	// patterns fill the prefix, the bucket-padding suffix stays on the gap
	// state (fully ambiguous).
	scratch := make([]int, pad)
	for p := req.patterns; p < pad; p++ {
		scratch[p] = c.key.States
	}
	for tip := 0; tip < req.tips; tip++ {
		req.aln.tipStates(req.rowOf[tip], scratch)
		if err := inst.SetTipStates(slot*c.key.Tips+tip, scratch); err != nil {
			return err
		}
	}
	if err := inst.SetEigenDecomposition(slot, req.eigen.Values, req.eigen.Vectors.Data, req.eigen.InverseVectors.Data); err != nil {
		return err
	}
	// Category rates are engine-global but only read while building this
	// slot's matrices, which happens right here; the merged partials batch
	// reads the finished matrices only.
	if err := inst.SetCategoryRates(req.rates); err != nil {
		return err
	}
	mats := make([]int, len(req.sched.Matrices))
	lens := make([]float64, len(req.sched.Matrices))
	for i, mu := range req.sched.Matrices {
		mats[i] = c.mapMatrix(slot, mu.Matrix)
		lens[i] = mu.Length
	}
	if err := inst.UpdateTransitionMatrices(slot, mats, lens); err != nil {
		return err
	}
	if req.wantDeriv {
		d1, d2, sum := c.derivMats(slot)
		if err := inst.UpdateTransitionMatrices(slot, []int{sum}, []float64{req.rootLen}); err != nil {
			return err
		}
		if err := inst.UpdateTransitionDerivatives(slot, []int{d1}, []int{d2}, []float64{req.rootLen}); err != nil {
			return err
		}
	}
	return nil
}

// integrate finishes one request after the merged partials batch: the
// engine-global integration inputs (category weights, frequencies, padded
// pattern weights) are set for this request, then the slot's root buffer is
// reduced. Padding weights are zero, so the reduction is bit-identical to a
// dedicated instance evaluating the exact pattern set.
func (c *Calculator) integrate(slot int, j *job) error {
	inst := c.inst
	req := j.c
	if err := inst.SetCategoryWeights(req.catWeights); err != nil {
		return err
	}
	if err := inst.SetStateFrequencies(req.freqs); err != nil {
		return err
	}
	weights := make([]float64, c.key.Patterns)
	copy(weights, req.aln.weights)
	if err := inst.SetPatternWeights(weights); err != nil {
		return err
	}
	root := c.mapPartials(slot, req.sched.Root, req.tips)
	lnL, err := inst.CalculateRootLogLikelihoods(root, gobeagle.None)
	if err != nil {
		return err
	}
	j.resp.LogLikelihood = lnL
	if req.wantSite {
		perPattern, err := inst.SiteLogLikelihoods(root, gobeagle.None)
		if err != nil {
			return err
		}
		out := make([]float64, req.sites)
		for site, p := range req.aln.siteOf {
			out[site] = perPattern[p]
		}
		j.resp.SiteLogLikelihoods = out
	}
	if req.wantDeriv {
		d1m, d2m, sum := c.derivMats(slot)
		parent := c.mapPartials(slot, req.rootLeft, req.tips)
		child := c.mapPartials(slot, req.rootRight, req.tips)
		_, d1, d2, err := inst.CalculateEdgeDerivatives(parent, child, sum, d1m, d2m, gobeagle.None)
		if err != nil {
			return err
		}
		j.resp.D1, j.resp.D2, j.resp.RootBranch = d1, d2, req.rootLen
	}
	return nil
}

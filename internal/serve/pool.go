package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gobeagle"
	"gobeagle/internal/trace"
)

// PoolKey identifies one warm-instance calculator: requests with the same
// key are compatible enough to share an instance and be micro-batched into
// one scheduler submission. Patterns and Tips are bucketed (rounded up to a
// power of two) so near-miss shapes hit the same warm instance; the padding
// is weight-zero and bit-invisible.
type PoolKey struct {
	States     int
	Patterns   int // pattern-count bucket (instance PatternCount)
	Tips       int // tip-count bucket (slot geometry)
	Categories int
	Single     bool
	Flags      gobeagle.Flags
}

// String renders the key for metrics labels and responses.
func (k PoolKey) String() string {
	prec := "d"
	if k.Single {
		prec = "s"
	}
	return fmt.Sprintf("s%d/p%d/t%d/c%d/%s", k.States, k.Patterns, k.Tips, k.Categories, prec)
}

// minPatternBucket and minTipBucket floor the buckets so tiny requests share
// one warm shape instead of fragmenting the pool.
const (
	minPatternBucket = 64
	minTipBucket     = 8
)

// bucketPatterns rounds a pattern count up to the next power of two, at
// least minPatternBucket.
func bucketPatterns(p int) int { return nextPow2(p, minPatternBucket) }

// bucketTips rounds a tip count up to the next power of two, at least
// minTipBucket.
func bucketTips(t int) int { return nextPow2(t, minTipBucket) }

func nextPow2(v, floor int) int {
	b := floor
	for b < v {
		b *= 2
	}
	return b
}

// Pool is the warm-instance pool: one calculator per key, bounded by
// MaxCalculators with least-recently-used eviction (an evicted calculator
// drains its queue and finalizes its instance in the background).
type Pool struct {
	opts Options
	tr   *trace.Tracer

	mu    sync.Mutex
	calcs map[PoolKey]*Calculator
	order []PoolKey // LRU order: least recently used first

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// NewPool builds an empty pool. tr may be nil (tracing off).
func NewPool(opts Options, tr *trace.Tracer) *Pool {
	return &Pool{opts: opts, tr: tr, calcs: map[PoolKey]*Calculator{}}
}

// Get returns the warm calculator for a key, creating it (and evicting the
// least recently used one beyond the cap) on a miss.
func (p *Pool) Get(key PoolKey) (*Calculator, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.calcs[key]; ok {
		p.touch(key)
		p.hits.Add(1)
		return c, true
	}
	p.misses.Add(1)
	c := newCalculator(key, p.opts, p.tr)
	go c.run()
	p.calcs[key] = c
	p.order = append(p.order, key)
	for p.opts.MaxCalculators > 0 && len(p.calcs) > p.opts.MaxCalculators {
		victim := p.order[0]
		p.order = p.order[1:]
		if v, ok := p.calcs[victim]; ok {
			delete(p.calcs, victim)
			v.close()
			p.evictions.Add(1)
		}
	}
	return c, false
}

// touch moves a key to the most-recently-used end.
func (p *Pool) touch(key PoolKey) {
	for i, k := range p.order {
		if k == key {
			p.order = append(append(p.order[:i:i], p.order[i+1:]...), key)
			return
		}
	}
}

// Close tears down every calculator and waits for their instances to
// finalize.
func (p *Pool) Close() {
	p.mu.Lock()
	// Tear down in LRU order rather than map order: close order is
	// observable through finalization traces and span timestamps, and the
	// daemon's shutdown must be reproducible run to run.
	calcs := make([]*Calculator, 0, len(p.calcs))
	for _, key := range p.order {
		if c, ok := p.calcs[key]; ok {
			calcs = append(calcs, c)
		}
	}
	p.calcs = map[PoolKey]*Calculator{}
	p.order = nil
	p.mu.Unlock()
	for _, c := range calcs {
		c.close()
	}
	for _, c := range calcs {
		c.wait()
	}
}

// PoolInstance pairs a live pooled instance with its key for the stitched
// trace export.
type PoolInstance struct {
	Key  PoolKey
	Inst *gobeagle.Instance
}

// Instances snapshots the pool's live instances, sorted by key so exports
// are stable run to run. An instance may be concurrently finalized by its
// executor after the snapshot; its span buffers stay readable, and wire
// drains against a closed worker connection simply report an error the
// caller skips.
func (p *Pool) Instances() []PoolInstance {
	p.mu.Lock()
	out := make([]PoolInstance, 0, len(p.calcs))
	for key, c := range p.calcs {
		if inst := c.instPub.Load(); inst != nil {
			out = append(out, PoolInstance{Key: key, Inst: inst})
		}
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// PoolStats is a point-in-time snapshot of the pool for metrics and the
// health endpoint.
type PoolStats struct {
	Calculators int              `json:"calculators"`
	Hits        uint64           `json:"hits"`
	Misses      uint64           `json:"misses"`
	Evictions   uint64           `json:"evictions"`
	PerKey      []CalculatorStat `json:"per_key,omitempty"`
}

// CalculatorStat summarizes one warm calculator.
type CalculatorStat struct {
	Key       string  `json:"key"`
	Slots     int     `json:"slots"`
	Batches   uint64  `json:"batches"`
	Requests  uint64  `json:"requests"`
	BatchFill float64 `json:"batch_fill"`
	Grows     uint64  `json:"grows"`
	Rebuilds  uint64  `json:"rebuilds"`
	Errors    uint64  `json:"errors"`
	QueueLen  int     `json:"queue_len"`
}

// Stats snapshots the pool.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{
		Calculators: len(p.calcs),
		Hits:        p.hits.Load(),
		Misses:      p.misses.Load(),
		Evictions:   p.evictions.Load(),
	}
	for _, key := range p.order {
		c, ok := p.calcs[key]
		if !ok {
			continue
		}
		batches := c.batches.Load()
		fill := 0.0
		if batches > 0 {
			fill = float64(c.batchFill.Load()) / float64(batches)
		}
		st.PerKey = append(st.PerKey, CalculatorStat{
			Key:       key.String(),
			Slots:     int(c.slotCap.Load()),
			Batches:   batches,
			Requests:  c.requests.Load(),
			BatchFill: fill,
			Grows:     c.grows.Load(),
			Rebuilds:  c.rebuilds.Load(),
			Errors:    c.errors.Load(),
			QueueLen:  len(c.queue),
		})
	}
	// Sort per-calculator rows by key: p.order is LRU order, which traffic
	// reshuffles between scrapes, and /metrics output must diff cleanly.
	sort.Slice(st.PerKey, func(i, j int) bool { return st.PerKey[i].Key < st.PerKey[j].Key })
	return st
}

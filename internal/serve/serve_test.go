package serve

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testNewick builds a balanced rooted binary tree over tips t0..t{n-1} with
// deterministic branch lengths.
func testNewick(tips int) string {
	var build func(lo, hi int, depth int) string
	build = func(lo, hi, depth int) string {
		if hi-lo == 1 {
			return fmt.Sprintf("t%d:%.3f", lo, 0.05+0.01*float64(lo%7))
		}
		mid := (lo + hi) / 2
		return fmt.Sprintf("(%s,%s):%.3f", build(lo, mid, depth+1), build(mid, hi, depth+1), 0.02+0.015*float64(depth%5))
	}
	// The root has no branch length: strip the trailing ":len".
	s := build(0, tips, 0)
	if i := strings.LastIndex(s, ")"); i >= 0 {
		s = s[:i+1]
	}
	return s + ";"
}

// testRequest builds a deterministic nucleotide request.
func testRequest(tips, sites int, seed int64, gamma bool) *EvaluateRequest {
	rng := rand.New(rand.NewSource(seed))
	const alphabet = "ACGT-"
	seqs := map[string]string{}
	for t := 0; t < tips; t++ {
		var sb strings.Builder
		for s := 0; s < sites; s++ {
			// Mostly real bases with occasional gaps.
			idx := rng.Intn(len(alphabet) + 15)
			if idx >= len(alphabet) {
				idx = idx % 4
			}
			sb.WriteByte(alphabet[idx])
		}
		seqs[fmt.Sprintf("t%d", t)] = sb.String()
	}
	req := &EvaluateRequest{
		Newick:    testNewick(tips),
		Model:     ModelSpec{Type: "HKY85", Kappa: 2.5, Frequencies: []float64{0.3, 0.2, 0.2, 0.3}},
		Sequences: seqs,
	}
	if gamma {
		req.Gamma = &GammaSpec{Alpha: 0.7, Categories: 4}
	}
	return req
}

func newTestServer(t *testing.T, mutate func(*Options)) *Server {
	t.Helper()
	opts := DefaultOptions()
	opts.Threads = 1
	if mutate != nil {
		mutate(&opts)
	}
	s := NewServer(opts)
	t.Cleanup(s.Close)
	return s
}

func evaluate(t *testing.T, s *Server, req *EvaluateRequest) *EvaluateResponse {
	t.Helper()
	resp, code, err := s.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatalf("Evaluate: %v (code %d)", err, code)
	}
	return resp
}

// TestServedMatchesDirect is the core correctness property of the serving
// layer: a request evaluated through the pooled, slot-carved, micro-batched
// path returns bit-identical results to a dedicated one-request instance.
func TestServedMatchesDirect(t *testing.T) {
	pooled := newTestServer(t, nil)
	direct := newTestServer(t, func(o *Options) { o.DisablePool = true })

	for _, tc := range []struct {
		tips, sites int
		gamma       bool
		deriv       bool
		site        bool
	}{
		{4, 40, false, false, false},
		{7, 100, true, false, true},  // odd tip count exercises bucket padding
		{12, 300, true, true, true},  // pattern padding + derivatives
		{16, 64, false, true, false}, // exact tip bucket
		{5, 1, true, false, true},    // single site
	} {
		req := testRequest(tc.tips, tc.sites, int64(tc.tips*1000+tc.sites), tc.gamma)
		req.SiteLogLikelihoods = tc.site
		req.EdgeDerivatives = tc.deriv

		got := evaluate(t, pooled, req)
		want := evaluate(t, direct, req)

		if got.LogLikelihood != want.LogLikelihood {
			t.Errorf("tips=%d sites=%d: pooled lnL = %v, direct = %v (must be bit-identical)",
				tc.tips, tc.sites, got.LogLikelihood, want.LogLikelihood)
		}
		if got.Patterns != want.Patterns || got.Sites != tc.sites {
			t.Errorf("tips=%d sites=%d: patterns/sites mismatch: %+v vs %+v", tc.tips, tc.sites, got, want)
		}
		if tc.site {
			if len(got.SiteLogLikelihoods) != tc.sites {
				t.Fatalf("site lnLs: got %d, want %d", len(got.SiteLogLikelihoods), tc.sites)
			}
			for i := range got.SiteLogLikelihoods {
				if got.SiteLogLikelihoods[i] != want.SiteLogLikelihoods[i] {
					t.Errorf("site %d lnL = %v, direct = %v", i, got.SiteLogLikelihoods[i], want.SiteLogLikelihoods[i])
					break
				}
			}
		}
		if tc.deriv {
			if got.D1 != want.D1 || got.D2 != want.D2 || got.RootBranch != want.RootBranch {
				t.Errorf("derivatives: pooled (%v,%v,%v), direct (%v,%v,%v)",
					got.D1, got.D2, got.RootBranch, want.D1, want.D2, want.RootBranch)
			}
		}
	}
}

// TestSinglePrecisionServed exercises the single-precision pool key.
func TestSinglePrecisionServed(t *testing.T) {
	pooled := newTestServer(t, nil)
	direct := newTestServer(t, func(o *Options) { o.DisablePool = true })
	req := testRequest(6, 80, 99, true)
	req.Precision = "single"
	got := evaluate(t, pooled, req)
	want := evaluate(t, direct, req)
	if got.LogLikelihood != want.LogLikelihood {
		t.Fatalf("single-precision pooled lnL = %v, direct = %v", got.LogLikelihood, want.LogLikelihood)
	}
	if !strings.HasSuffix(got.Pool.Key, "/s") {
		t.Fatalf("pool key %q should carry the single-precision suffix", got.Pool.Key)
	}
}

// TestPoolWarmHit verifies the second request of a shape hits the warm
// calculator.
func TestPoolWarmHit(t *testing.T) {
	s := newTestServer(t, nil)
	req := testRequest(8, 120, 7, true)
	first := evaluate(t, s, req)
	if first.Pool.Hit {
		t.Fatalf("first request reported a pool hit")
	}
	second := evaluate(t, s, req)
	if !second.Pool.Hit {
		t.Fatalf("second request of the same shape missed the warm pool")
	}
	if first.LogLikelihood != second.LogLikelihood {
		t.Fatalf("repeat evaluation drifted: %v vs %v", first.LogLikelihood, second.LogLikelihood)
	}
	st := s.pool.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("pool stats = %d hits / %d misses, want 1/1", st.Hits, st.Misses)
	}
}

// TestPoolLRUEviction verifies the calculator cap evicts the least recently
// used shape and that an evicted shape still evaluates correctly when it
// returns.
func TestPoolLRUEviction(t *testing.T) {
	s := newTestServer(t, func(o *Options) { o.MaxCalculators = 2 })
	reqA := testRequest(4, 30, 1, false)  // t4/p64
	reqB := testRequest(12, 30, 2, false) // t16/p64
	reqC := testRequest(4, 300, 3, false) // t4/p256 (distinct pattern bucket)

	lnlA := evaluate(t, s, reqA).LogLikelihood
	evaluate(t, s, reqB)
	evaluate(t, s, reqC) // evicts A's calculator

	st := s.pool.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Calculators != 2 {
		t.Fatalf("calculators = %d, want 2", st.Calculators)
	}

	// A's shape was evicted: re-requesting it must miss, rebuild and agree.
	again := evaluate(t, s, reqA)
	if again.Pool.Hit {
		t.Fatalf("evicted shape reported a warm hit")
	}
	if again.LogLikelihood != lnlA {
		t.Fatalf("post-eviction lnL = %v, want %v", again.LogLikelihood, lnlA)
	}
}

// TestConcurrentServedBitIdentical hammers the pooled server from many
// goroutines with a mix of shapes and verifies — under the race detector —
// that every response is bit-identical to a dedicated instance. This is the
// micro-batching soundness test: coalesced requests must not contaminate each
// other through the shared instance's global state.
func TestConcurrentServedBitIdentical(t *testing.T) {
	pooled := newTestServer(t, func(o *Options) {
		o.InitialSlots = 2 // force golden-ratio growth under load
	})
	direct := newTestServer(t, func(o *Options) { o.DisablePool = true })

	type variant struct {
		req  *EvaluateRequest
		want float64
	}
	var variants []variant
	for i := 0; i < 4; i++ {
		req := testRequest(4+3*i, 50+40*i, int64(i), i%2 == 0)
		variants = append(variants, variant{req, evaluate(t, direct, req).LogLikelihood})
	}

	const workers = 16
	const perWorker = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := variants[(w+i)%len(variants)]
				resp, code, err := pooled.Evaluate(context.Background(), v.req)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %v (code %d)", w, err, code)
					return
				}
				if resp.LogLikelihood != v.want {
					errs <- fmt.Errorf("worker %d: lnL %v, want %v (batched=%d slot=%d)",
						w, resp.LogLikelihood, v.want, resp.Pool.Batched, resp.Pool.Slot)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Under concurrency at least some requests must have shared a batch,
	// otherwise this test exercises nothing.
	st := pooled.pool.Stats()
	var batched uint64
	for _, c := range st.PerKey {
		if c.Requests > c.Batches {
			batched++
		}
	}
	t.Logf("pool after load: %+v", st)
}

// TestQuotaRejects verifies per-tenant token buckets reject over-quota
// tenants with a retry hint while leaving other tenants untouched.
func TestQuotaRejects(t *testing.T) {
	tb := NewTokenBuckets(1, 2)
	now := time.Now()
	for i := 0; i < 2; i++ {
		if ok, _ := tb.Allow("a", now); !ok {
			t.Fatalf("request %d within burst rejected", i)
		}
	}
	ok, retry := tb.Allow("a", now)
	if ok {
		t.Fatalf("over-burst request admitted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s]", retry)
	}
	if ok, _ := tb.Allow("b", now); !ok {
		t.Fatalf("tenant b throttled by tenant a's quota")
	}
	// A refilled bucket admits again.
	if ok, _ := tb.Allow("a", now.Add(1100*time.Millisecond)); !ok {
		t.Fatalf("refilled bucket still rejecting")
	}
}

// TestSubmitAdmissionControl verifies the bounded queue fails fast (mapped to
// 429 by the handler) and a closed calculator rejects with errClosed.
func TestSubmitAdmissionControl(t *testing.T) {
	c := &Calculator{
		queue:   make(chan *job, 1),
		closing: make(chan struct{}),
		closed:  make(chan struct{}),
	}
	if err := c.submit(&job{done: make(chan struct{})}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if err := c.submit(&job{done: make(chan struct{})}); err != errQueueFull {
		t.Fatalf("full-queue submit = %v, want errQueueFull", err)
	}
	c.once.Do(func() { close(c.closing) })
	if err := c.submit(&job{done: make(chan struct{})}); err != errClosed {
		t.Fatalf("closed submit = %v, want errClosed", err)
	}
}

// TestHTTPEndpoints exercises the wire surface: evaluate round-trip, health,
// metrics exposition, quota 429 and malformed-request 400.
func TestHTTPEndpoints(t *testing.T) {
	s := newTestServer(t, func(o *Options) {
		o.QuotaRPS = 0.001 // one token refills every ~17 minutes
		o.QuotaBurst = 2
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := `{"newick":"((a:0.1,b:0.2):0.1,(c:0.15,d:0.05):0.2);",` +
		`"model":{"type":"JC69"},` +
		`"sequences":{"a":"ACGTAC","b":"ACGTTC","c":"AGGTAC","d":"ACCTAC"}}`
	post := func(tenant string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/evaluate", strings.NewReader(body))
		req.Header.Set("X-Beagle-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		return resp
	}

	for i := 0; i < 2; i++ {
		resp := post("alice")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := post("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	resp.Body.Close()
	if resp = post("bob"); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant bob status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatalf("POST garbage: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	for _, path := range []string{"/v1/health", "/metrics", "/debug/vars", "/debug/trace"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// The metrics exposition must carry the beagled_ families.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	mresp.Body.Close()
	for _, want := range []string{"beagled_requests_total", "beagled_pool_hits_total", "beagled_rejected_total"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestValidationErrors verifies malformed evaluates map to 422.
func TestValidationErrors(t *testing.T) {
	s := newTestServer(t, func(o *Options) { o.MaxTips = 8 })
	for name, req := range map[string]*EvaluateRequest{
		"bad newick":    {Newick: "((a:0.1,", Model: ModelSpec{Type: "JC69"}},
		"no sequences":  {Newick: "(a:0.1,b:0.2);", Model: ModelSpec{Type: "JC69"}},
		"bad model":     {Newick: "(a:0.1,b:0.2);", Model: ModelSpec{Type: "nope"}, Sequences: map[string]string{"a": "A", "b": "C"}},
		"ragged":        {Newick: "(a:0.1,b:0.2);", Model: ModelSpec{Type: "JC69"}, Sequences: map[string]string{"a": "AC", "b": "C"}},
		"too many tips": testRequest(9, 10, 1, false),
		"bad precision": {Newick: "(a:0.1,b:0.2);", Model: ModelSpec{Type: "JC69"}, Precision: "half", Sequences: map[string]string{"a": "A", "b": "C"}},
	} {
		_, code, err := s.Evaluate(context.Background(), req)
		if err == nil {
			t.Errorf("%s: no error", name)
			continue
		}
		if code != http.StatusUnprocessableEntity {
			t.Errorf("%s: code = %d, want 422", name, code)
		}
	}
}

// TestPoolKeyBucketing pins the bucketing rules the pool relies on.
func TestPoolKeyBucketing(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 64}, {64, 64}, {65, 128}, {1000, 1024},
	} {
		if got := bucketPatterns(tc.in); got != tc.want {
			t.Errorf("bucketPatterns(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, tc := range []struct{ in, want int }{
		{2, 8}, {8, 8}, {9, 16}, {100, 128},
	} {
		if got := bucketTips(tc.in); got != tc.want {
			t.Errorf("bucketTips(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

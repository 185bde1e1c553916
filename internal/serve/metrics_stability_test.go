package serve

import (
	"bytes"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMetricsExpositionStable pins the /metrics Prometheus exposition to be
// byte-identical across two scrapes of an idle daemon. Every map in the path
// from pool snapshot to text rendering (per-key calculator stats, sample
// labels) must therefore be emitted in a sorted order; any reintroduced map
// iteration shows up here as a flaky diff long before it confuses a scrape
// differ in production.
func TestMetricsExpositionStable(t *testing.T) {
	s := newTestServer(t, nil)

	// Evaluate a couple of distinct shapes first so the exposition carries
	// several per-calculator label sets — the part of the output that came
	// from map-ordered state before Pool.Stats sorted it.
	evaluate(t, s, testRequest(4, 12, 1, false))
	evaluate(t, s, testRequest(8, 40, 2, true))

	scrape := func() string {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("GET /metrics: status %d", rec.Code)
		}
		return rec.Body.String()
	}

	first := scrape()
	if !strings.Contains(first, "beagled_calc_requests_total") {
		t.Fatalf("exposition carries no per-calculator rows; scrape:\n%s", first)
	}
	for i := 0; i < 8; i++ {
		if next := scrape(); !bytes.Equal([]byte(first), []byte(next)) {
			t.Fatalf("scrape %d differs from first on an idle daemon:\n--- first\n%s\n--- scrape %d\n%s",
				i+2, first, i+2, next)
		}
	}
}

// TestBatchCountedBeforeAnswer pins the executor's release order: it records
// a batch (batches, fill, the batch span) before it hands the batch's answers
// back, so Stats read the moment an answer arrives already counts it.
// Released first, an idle daemon's /metrics could change between two scrapes
// taken right after a response. The waiter polls instead of blocking, so it
// runs on another core the instant the answer is released rather than after
// the executor has moved on.
func TestBatchCountedBeforeAnswer(t *testing.T) {
	s := newTestServer(t, nil)
	c, err := s.compile(testRequest(6, 40, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	calc := newCalculator(c.key, s.opts, nil)
	go calc.run()
	defer calc.wait()
	defer calc.close()
	for i := 1; i <= 1000; i++ {
		j := &job{c: c, enq: time.Now(), done: make(chan struct{})}
		if err := calc.submit(j); err != nil {
			t.Fatal(err)
		}
		for polls := 1; ; polls++ {
			select {
			case <-j.done:
			default:
				if polls%1024 == 0 {
					runtime.Gosched() // lets the executor run on a single core
				}
				continue
			}
			break
		}
		if j.err != nil {
			t.Fatal(j.err)
		}
		if b, fill := calc.batches.Load(), calc.batchFill.Load(); b != uint64(i) || fill != uint64(i) {
			t.Fatalf("answer %d released with %d batches (fill sum %d) recorded, want %d", i, b, fill, i)
		}
	}
}

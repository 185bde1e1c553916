package remoteimpl

import (
	"math"
	"math/rand"
	"testing"

	"gobeagle/internal/trace"
)

// TestDrainSpansStitchesWorkerSpans drives a traced evaluation through a
// real worker process boundary and drains the engine-side spans back: they
// must exist, carry the originating request id, be rebased into the client
// tracer's timeline, and be consumed by the drain (a second drain without
// new work returns no apply spans).
func TestDrainSpansStitchesWorkerSpans(t *testing.T) {
	tr, m, rates, ps := problem(t, 3, 8, 200)
	cfg := testConfig(tr, ps.PatternCount())
	tracer := trace.New()
	tracer.SetEnabled(true)
	cfg.Trace = tracer

	addr, _, _ := startWorker(t)
	remote, err := New(cfg, Options{Addr: addr, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	const reqID = 42
	tracer.SetRequest(reqID)
	evaluate(t, remote, tr, m, rates, ps)
	tracer.SetRequest(0)

	spans, err := remote.DrainSpans()
	if err != nil {
		t.Fatalf("DrainSpans: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("worker recorded no spans for a traced evaluation")
	}
	now := tracer.Now()
	applies, tagged := 0, 0
	for _, sp := range spans {
		if sp.Kind == trace.KindRemoteApply {
			applies++
			if sp.Req == reqID {
				tagged++
			}
			if sp.Start < 0 || sp.Start > now {
				t.Errorf("apply span start %d not rebased into client timeline [0, %d]", sp.Start, now)
			}
		}
	}
	if applies == 0 {
		t.Fatalf("no %v spans among %d drained spans", trace.KindRemoteApply, len(spans))
	}
	if tagged == 0 {
		t.Fatalf("none of %d apply spans carried request id %d", applies, reqID)
	}

	again, err := remote.DrainSpans()
	if err != nil {
		t.Fatalf("second DrainSpans: %v", err)
	}
	for _, sp := range again {
		if sp.Kind == trace.KindRemoteApply {
			t.Fatalf("apply span survived the first drain (drain must consume)")
		}
	}
}

// TestDrainSpansDisabledIsNil asserts the untraced fast path: no tracer, no
// wire traffic, nil result.
func TestDrainSpansDisabledIsNil(t *testing.T) {
	tr, m, rates, ps := problem(t, 4, 8, 100)
	cfg := testConfig(tr, ps.PatternCount())

	addr, _, _ := startWorker(t)
	remote, err := New(cfg, Options{Addr: addr, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	evaluate(t, remote, tr, m, rates, ps)

	before := remote.Stats().RPCs
	spans, err := remote.DrainSpans()
	if err != nil || spans != nil {
		t.Fatalf("untraced DrainSpans = (%v, %v), want (nil, nil)", spans, err)
	}
	if after := remote.Stats().RPCs; after != before {
		t.Fatalf("untraced DrainSpans issued %d RPCs", after-before)
	}
}

// TestRebaseDeltaStaysInsideTheRoundTrip drives rebaseDelta with synthetic
// clocks: the client's epoch at wall time 0, the worker's at E (either
// side), spans recorded after both epochs, and a drain whose request and
// response legs are delayed independently. The shift must lie in the
// interval the round trip proves, start no host-layer span before the
// client's epoch nor after the drain returned, and equal E exactly when the
// legs are symmetric.
func TestRebaseDeltaStaysInsideTheRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		e := rng.Int63n(2_000_000) - 1_000_000 // worker epoch on the wall clock
		spanWall := max(0, e) + rng.Int63n(1_000_000)
		earliest := spanWall - e // on the worker's clock
		t0 := spanWall + rng.Int63n(1_000_000)
		a, b := rng.Int63n(1_000_000), rng.Int63n(1_000_000) // request, response legs
		if i%4 == 0 {
			b = a
		}
		workerNow := t0 + a - e
		t1 := t0 + a + b
		delta := rebaseDelta(t0, t1, workerNow, earliest)
		if delta < t0-workerNow || delta > t1-workerNow {
			t.Fatalf("case %d: delta %d outside the round trip's [%d, %d]", i, delta, t0-workerNow, t1-workerNow)
		}
		if start := earliest + delta; start < 0 || start > t1 {
			t.Fatalf("case %d: earliest span rebased to %d, outside [0, %d]", i, start, t1)
		}
		if a == b && delta != e {
			t.Fatalf("case %d: symmetric legs gave delta %d, want %d", i, delta, e)
		}
	}
	// The skew that made the midpoint place the first apply span before the
	// client's epoch: worker epoch 200 ns after the client's, first span 10 ns
	// later, and a drain whose request leg took 990 of its 1000 ns.
	if got := rebaseDelta(1000, 2000, 1790, 10); got != -10 {
		t.Fatalf("late request leg: delta %d, want -10 (span at the client's epoch)", got)
	}
	// No host-layer span: the midpoint.
	if got := rebaseDelta(1000, 2000, 1790, math.MaxInt64); got != -290 {
		t.Fatalf("no spans: delta %d, want the midpoint -290", got)
	}
}

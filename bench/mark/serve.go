package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"gobeagle"
	"gobeagle/internal/serve"
)

// serveShape is the problem every request carries: 16 tips × 128 sites,
// HKY85 + Γ4. Kernel work is tens of µs; the request path around it is what
// the workload measures.
var serveShape = shape{tips: 16, states: 4, patterns: 128, cats: 4}

const (
	// repeatBases is the number of (model, alignment) pairs the repeat
	// class draws from; repeatShare the share of requests in that class.
	repeatBases = 8
	repeatShare = 0.75
	// openLoopRate is phase A's Poisson arrival rate, requests/s.
	openLoopRate = 100
	// openShare is phase A's part of a round; the rest is the closed loop.
	// It gives phase A some 110 requests in a round of the default length;
	// a higher rate would give more, but on two cores it turns every stall
	// of the host into a queue, and the tail then reads the host.
	openShare = 0.65
	// pinnedRequests is how many of the pool's first requests expected.json
	// pins (digest of their problems, their answers).
	pinnedRequests = 8
	// poolPerSecond sizes the request pool: a round may consume at most
	// this many requests per second of its length (far above what the
	// server reaches), plus the warm-up.
	poolPerSecond = 1500
)

// servedRequest is one pre-generated request with its expected answer.
type servedRequest struct {
	req    *serve.EvaluateRequest
	body   []byte
	want   float64 // dedicated-instance evaluation of the same problem
	repeat bool
	p      *problem
}

// serveWorkload drives POST /v1/evaluate on a fresh server per round. Rounds
// walk on through the request pool and the arrival process instead of
// replaying one stretch of them: which requests bunch together and which of
// them are fresh decides a round's tail, so a run whose rounds all saw the
// same hundred arrivals would report that stretch's luck as its p95.
type serveWorkload struct {
	pool     []servedRequest
	next     int  // pool index the next round starts at
	arrivals *rng // phase A's Poisson process, continued from round to round
	digest   string
}

func (w *serveWorkload) flops() float64 { return serveShape.flops() }

func (w *serveWorkload) pinned() pinnedEntry {
	vals := make([]float64, pinnedRequests)
	for i := range vals {
		vals[i] = w.pool[i].want
	}
	return pinnedEntry{Digest: w.digest, Values: vals}
}

// directEvaluator evaluates request problems on one dedicated serial
// double-precision instance — the answer a served response must match.
type directEvaluator struct{ inst *gobeagle.Instance }

func newDirectEvaluator(s shape) (*directEvaluator, error) {
	cfg := gobeagle.Config{
		TipCount: s.tips, PartialsBuffers: 2*s.tips - 1, MatrixBuffers: 2*s.tips - 1,
		EigenBuffers: 1, StateCount: s.states, PatternCount: s.patterns, CategoryCount: s.cats,
	}
	inst, err := gobeagle.NewInstance(cfg)
	if err != nil {
		return nil, err
	}
	return &directEvaluator{inst: inst}, nil
}

func (d *directEvaluator) eval(p *problem, ln *lane, op int64) (float64, error) {
	if err := p.load(d.inst); err != nil {
		return 0, err
	}
	return evalInstance(d.inst, p.plan(), ln, op)
}

// request renders a problem as a wire request.
func (p *problem) request() *serve.EvaluateRequest {
	seqs := make(map[string]string, p.tips)
	buf := make([]byte, p.patterns)
	for _, tip := range p.tr.Tips() {
		for i, s := range p.tipStates[tip.Index] {
			buf[i] = "ACGT"[s]
		}
		seqs[tip.Name] = string(buf)
	}
	return &serve.EvaluateRequest{
		Newick:    p.newick,
		Model:     serve.ModelSpec{Type: "HKY85", Kappa: p.kappa, Frequencies: p.freqs},
		Gamma:     &serve.GammaSpec{Alpha: p.alpha, Categories: p.cats},
		Sequences: seqs,
	}
}

func (w *serveWorkload) prepare(seed uint64, roundDur time.Duration) error {
	r := newRNG(seed, "serve_http/requests")
	bases := make([]*problem, repeatBases)
	for i := range bases {
		b, err := newProblem(fixedTopology(serveShape.tips), r, serveShape)
		if err != nil {
			return err
		}
		bases[i] = b
	}
	direct, err := newDirectEvaluator(serveShape)
	if err != nil {
		return err
	}
	defer direct.inst.Finalize()
	n := int(roundDur.Seconds()*poolPerSecond) + 64
	w.pool = make([]servedRequest, n)
	pinned := sha256.New() // over the first requests' problems
	for i := range w.pool {
		var p *problem
		repeat := r.Float64() < repeatShare
		if repeat {
			// Same model and alignment as a base, fresh branch lengths.
			b := bases[r.Intn(repeatBases)]
			if p, err = b.withNewLengths(r); err != nil {
				return err
			}
		} else if p, err = newProblem(r, r, serveShape); err != nil {
			return err
		}
		want, err := direct.eval(p, nil, -1)
		if err != nil {
			return err
		}
		req := p.request()
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		w.pool[i] = servedRequest{req: req, body: body, want: want, repeat: repeat, p: p}
		if i < pinnedRequests {
			pinned.Write([]byte(p.digest()))
		}
	}
	w.digest = hex.EncodeToString(pinned.Sum(nil))[:32]
	w.arrivals = newRNG(seed, "serve_http/arrivals")
	return nil
}

// openCount is the number of phase A arrivals in a round of length dur.
func openCount(dur time.Duration) int {
	return int(dur.Seconds() * openShare * openLoopRate)
}

// served is what the harness keeps of one response.
type served struct {
	status int
	hit    bool
	batch  int
	waitUs int64
}

// serveRound is one running server with its HTTP client.
type serveRound struct {
	w      *serveWorkload
	url    string
	client *http.Client
	stop   func()
	seen   []served // by pool index
}

func (w *serveWorkload) start() (*serveRound, error) {
	srv := serve.NewServer(serve.DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx, "127.0.0.1:0", ready) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-done:
		cancel()
		return nil, fmt.Errorf("serve_http: server did not start: %v", err)
	}
	tr := &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16, DisableCompression: true}
	return &serveRound{
		w: w, url: "http://" + addr.String() + "/v1/evaluate",
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		stop: func() {
			tr.CloseIdleConnections()
			cancel()
			<-done
		},
		seen: make([]served, len(w.pool)),
	}, nil
}

// post sends pool request i (modulo the pool's size) over HTTP and checks
// the answer.
func (s *serveRound) post(i int, ln *lane) bool {
	i %= len(s.w.pool)
	sp := ln.begin("http.POST /v1/evaluate", int64(i))
	defer ln.end(sp)
	sr := &s.w.pool[i]
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(sr.body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	s.seen[i].status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	var out serve.EvaluateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return false
	}
	s.seen[i] = served{status: resp.StatusCode, hit: out.Pool.Hit, batch: out.Pool.Batched, waitUs: out.Pool.WaitMicros}
	return relErr(out.LogLikelihood, sr.want) <= 1e-9
}

func (w *serveWorkload) round(dur time.Duration, ln *lane) (roundResult, error) {
	r, _, err := w.roundDetail(dur, ln)
	return r, err
}

// serveDetail is what the serve layer probes read beyond the round result.
type serveDetail struct {
	open      loadResult
	closed    loadResult
	seen      []served
	firstMs   float64
	openFrom  int
	closeFrom int
}

func (w *serveWorkload) roundDetail(dur time.Duration, ln *lane) (roundResult, serveDetail, error) {
	var r roundResult
	var d serveDetail
	conns := threads()
	var s *serveRound
	used := w.next
	stop, err := r.timedSetups(burstShape{}, func() (bool, func(), error) {
		sr, err := w.start()
		if err != nil {
			return false, nil, err
		}
		s = sr
		used++
		return sr.post(used-1, nil), sr.stop, nil
	})
	if err != nil {
		return r, d, err
	}
	defer stop()
	d.firstMs = r.setupS * 1e3

	// One untimed request per connection, so every connection is dialed and
	// the pool's calculator is warm before anything is timed.
	lanes := make([]*lane, conns)
	for c := range lanes {
		lanes[c] = ln.sibling()
	}
	warm := closedLoop(2*conns, conns, time.Minute, func(c, i int) bool { return s.post(used+i, nil) })
	used += 2 * conns
	r.attempted += warm.attempted
	r.failed += warm.failed

	// Phase A, open loop: Poisson arrivals, latency from the due time.
	d.openFrom = used
	due := poissonSchedule(w.arrivals, openCount(dur), openLoopRate)
	d.open = openLoop(due, conns, func(c, i int) bool { return s.post(d.openFrom+i, lanes[c]) })
	used += len(due)

	// Phase B, closed loop: each client sends as soon as its reply arrives.
	d.closeFrom = used
	closedDur := time.Duration(float64(dur) * (1 - openShare))
	d.closed = closedLoop(len(w.pool)-(used-w.next), conns, closedDur, func(c, i int) bool { return s.post(d.closeFrom+i, lanes[c]) })
	w.next = (used + d.closed.attempted) % len(w.pool)
	d.seen = s.seen
	if ln != nil {
		// The Instance layer on this workload's problem: the dedicated
		// evaluation of the requests just served, under harness spans.
		direct, err := newDirectEvaluator(serveShape)
		if err != nil {
			return r, d, err
		}
		defer direct.inst.Finalize()
		from := ln.mark()
		for i := 0; i < 4*allocSampleEvals; i++ {
			if _, err := direct.eval(w.pool[i].p, ln, int64(i)); err != nil {
				return r, d, err
			}
		}
		i := 0
		allocs := allocsPerCall(allocSampleEvals, func() { direct.eval(w.pool[i].p, nil, -1); i++ })
		r.layer = instanceLayer(ln, from, allocs)
	}
	r.open = d.open.latMs
	r.closed = d.closed.latMs
	r.ops = len(d.closed.latMs)
	r.wallS = d.closed.wall.Seconds()
	r.attempted += d.open.attempted + d.closed.attempted
	r.failed += d.open.failed + d.closed.failed
	return r, d, nil
}

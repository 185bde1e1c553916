// Command beagled is the likelihood-as-a-service daemon: it serves the
// library's phylogenetic likelihood evaluation over a JSON HTTP API, backed
// by a pool of warm, slot-carved instances that micro-batch compatible
// requests into wide scheduler submissions.
//
//	POST /v1/evaluate      evaluate a tree+model+alignment (JSON in/out)
//	GET  /v1/health        liveness, uptime and pool summary
//	GET  /metrics          Prometheus text metrics (beagled_* families)
//	GET  /cluster/metrics  federated metrics: self plus every -workers scrape
//	GET  /debug/vars       expvar-style JSON variables
//	GET  /debug/trace      serve-layer span summary
//	GET  /debug/trace.json stitched Chrome trace (with -trace: serve + engines + workers)
//	GET  /debug/slow       slowest retained requests with phase timings
//	GET  /debug/pprof/     runtime profiling (only with -pprof)
//
// Every /v1/evaluate response echoes X-Beagle-Request-Id, honoring a
// client-supplied value and generating one otherwise, on rejections too.
//
// The daemon exits gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight requests drain, and every pooled instance is finalized.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"gobeagle/internal/serve"
)

func main() {
	def := serve.DefaultOptions()
	var (
		addr         = flag.String("addr", "127.0.0.1:8380", "listen address (use :0 for an ephemeral port)")
		portFile     = flag.String("port-file", "", "write the bound address to this file once listening (for test harnesses)")
		maxBatch     = flag.Int("max-batch", def.MaxBatch, "maximum requests merged into one scheduler submission")
		initialSlots = flag.Int("initial-slots", def.InitialSlots, "slot capacity a fresh warm instance starts with")
		queue        = flag.Int("queue", def.QueueDepth, "admission queue depth per warm instance (full queue answers 429)")
		maxInst      = flag.Int("max-instances", def.MaxCalculators, "warm instance pool cap (LRU eviction beyond it)")
		maxTips      = flag.Int("max-tips", def.MaxTips, "largest accepted tree (tips)")
		maxPatterns  = flag.Int("max-patterns", def.MaxPatterns, "largest accepted compressed alignment (patterns)")
		rps          = flag.Float64("rps", 0, "per-tenant request quota in requests/second (0 disables)")
		burst        = flag.Int("burst", def.QuotaBurst, "per-tenant quota burst")
		threads      = flag.Int("threads", 0, "worker threads per pooled instance (0 = all cores)")
		noPool       = flag.Bool("no-pool", false, "ablation: evaluate every request on a fresh instance")
		workersArg   = flag.String("workers", "", "comma-separated beagleworker addresses; pooled instances shard patterns across the local host and these workers")
		traceOn      = flag.Bool("trace", false, "propagate span tracing into pooled instances and worker processes (stitched /debug/trace.json export)")
		pprofOn      = flag.Bool("pprof", false, "expose /debug/pprof/ runtime profiling endpoints")
		slowN        = flag.Int("slow", 0, "slowest requests retained for /debug/slow (0 = default)")
		logJSON      = flag.Bool("log-json", false, "emit JSON structured logs instead of text")
		selfcheck    = flag.Bool("selfcheck", false, "boot in-process, verify a served request against direct evaluation, exit")
	)
	flag.Parse()

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler).With("component", "beagled")

	opts := serve.DefaultOptions()
	opts.MaxBatch = *maxBatch
	opts.InitialSlots = *initialSlots
	opts.QueueDepth = *queue
	opts.MaxCalculators = *maxInst
	opts.MaxTips = *maxTips
	opts.MaxPatterns = *maxPatterns
	opts.QuotaRPS = *rps
	opts.QuotaBurst = *burst
	opts.Threads = *threads
	opts.DisablePool = *noPool
	opts.Trace = *traceOn
	opts.Pprof = *pprofOn
	opts.SlowN = *slowN
	opts.Logger = logger
	if *workersArg != "" {
		opts.Workers = strings.Split(*workersArg, ",")
	}

	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err.Error())
		os.Exit(1)
	}

	if *selfcheck {
		if err := runSelfcheck(opts); err != nil {
			fatal("selfcheck failed", err)
		}
		fmt.Println("beagled: selfcheck ok")
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := serve.NewServer(opts)
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe(ctx, *addr, ready) }()

	select {
	case bound := <-ready:
		logger.Info("serving", "url", "http://"+bound.String(), "max_batch", opts.MaxBatch,
			"pool", opts.MaxCalculators, "workers", len(opts.Workers),
			"trace", opts.Trace, "pprof", opts.Pprof)
		if *portFile != "" {
			if err := os.WriteFile(*portFile, []byte(bound.String()+"\n"), 0o644); err != nil {
				fatal("write port file", err)
			}
		}
	case err := <-errc:
		fatal("listen", err)
	}

	if err := <-errc; err != nil {
		fatal("serve", err)
	}
	logger.Info("drained and shut down")
}

// selfcheckRequest is a small fixed problem exercised by -selfcheck.
const selfcheckRequest = `{
  "newick": "((human:0.1,chimp:0.12):0.05,(mouse:0.3,rat:0.25):0.1);",
  "model": {"type": "HKY85", "kappa": 2.5, "frequencies": [0.3, 0.2, 0.2, 0.3]},
  "gamma": {"alpha": 0.5, "categories": 4},
  "sequences": {
    "human": "ACGTACGTACGGTACGTTACGATA",
    "chimp": "ACGTACGTACGGTACGCTACGATA",
    "mouse": "ACGTTCGTACGGTACGTTAAGATA",
    "rat":   "ACGTTCGAACGGTACGTTACGATA"
  },
  "site_log_likelihoods": true
}`

// runSelfcheck boots the pooled server in-process, evaluates a fixed problem
// through it twice (cold and warm) and against the one-instance-per-request
// path, and requires bit-identical log likelihoods.
func runSelfcheck(opts serve.Options) error {
	pooled := serve.NewServer(opts)
	defer pooled.Close()
	directOpts := opts
	directOpts.DisablePool = true
	direct := serve.NewServer(directOpts)
	defer direct.Close()

	eval := func(s *serve.Server) (*serve.EvaluateResponse, error) {
		var req serve.EvaluateRequest
		if err := jsonDecode(selfcheckRequest, &req); err != nil {
			return nil, err
		}
		resp, code, err := s.Evaluate(context.Background(), &req)
		if err != nil {
			return nil, fmt.Errorf("evaluate (HTTP %d): %w", code, err)
		}
		return resp, nil
	}

	want, err := eval(direct)
	if err != nil {
		return fmt.Errorf("direct path: %w", err)
	}
	for pass, label := range []string{"cold", "warm"} {
		got, err := eval(pooled)
		if err != nil {
			return fmt.Errorf("pooled path (%s): %w", label, err)
		}
		if got.LogLikelihood != want.LogLikelihood {
			return fmt.Errorf("%s pooled lnL %v != direct %v (must be bit-identical)",
				label, got.LogLikelihood, want.LogLikelihood)
		}
		if pass == 1 && !got.Pool.Hit {
			return fmt.Errorf("warm pass missed the instance pool")
		}
	}

	// The HTTP surface must round-trip too.
	ready := make(chan net.Addr, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpSrv := serve.NewServer(opts)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe(ctx, "127.0.0.1:0", ready) }()
	var bound net.Addr
	select {
	case bound = <-ready:
	case err := <-errc:
		return fmt.Errorf("listen: %v", err)
	}
	resp, err := http.Post("http://"+bound.String()+"/v1/evaluate", "application/json",
		strings.NewReader(selfcheckRequest))
	if err != nil {
		return fmt.Errorf("POST /v1/evaluate: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/evaluate: status %d", resp.StatusCode)
	}
	var wire serve.EvaluateResponse
	if err := jsonDecodeReader(resp.Body, &wire); err != nil {
		return err
	}
	if wire.LogLikelihood != want.LogLikelihood {
		return fmt.Errorf("wire lnL %v != direct %v", wire.LogLikelihood, want.LogLikelihood)
	}
	mresp, err := http.Get("http://" + bound.String() + "/metrics")
	if err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d", mresp.StatusCode)
	}
	cancel()
	if err := <-errc; err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Printf("beagled: selfcheck lnL %.6f over %d sites (%d patterns), pooled==direct bit-identical\n",
		want.LogLikelihood, want.Sites, want.Patterns)
	return nil
}

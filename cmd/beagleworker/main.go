// Command beagleworker hosts likelihood engines for a distributed gobeagle
// coordinator. It listens on a TCP address, speaks the remoteimpl wire
// protocol and builds one CPU engine per coordinator backend session; a
// coordinator created with NewDistributedInstance (or the beagled -workers
// flag) shards its site patterns across a set of these processes. Without
// -threading each engine is the one a flag-less library instance gets
// (cpuimpl.Default, the vectorised kernels on the calling goroutine);
// -threading serial asks for the unvectorised reference.
//
// Observability: -debug-addr serves /metrics (Prometheus text) and
// /debug/vars for the coordinator's cluster federation endpoint — the
// worker advertises this address in its wire hello — and -pprof adds the
// net/http/pprof handlers to it. Traced coordinator requests record
// engine-side spans into per-session tracers that the coordinator drains
// for cross-process trace stitching; no flag is needed here, the trace
// context rides the wire protocol.
//
//	beagleworker -addr 127.0.0.1:8381
//	beagleworker -addr 127.0.0.1:0 -port-file /tmp/worker.addr -threading threadpool
//	beagleworker -addr 127.0.0.1:8381 -debug-addr 127.0.0.1:9501 -pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/engine"
	"gobeagle/internal/metricsx"
	"gobeagle/internal/remoteimpl"
	"gobeagle/internal/trace"
)

// defaultThreading is -threading's default, the name of cpuimpl.Default.
const defaultThreading = "sse"

func parseMode(s string) (cpuimpl.Mode, error) {
	switch s {
	case "serial":
		return cpuimpl.Serial, nil
	case "sse":
		return cpuimpl.SSE, nil
	case "futures":
		return cpuimpl.Futures, nil
	case "threadcreate":
		return cpuimpl.ThreadCreate, nil
	case "threadpool":
		return cpuimpl.ThreadPool, nil
	case "hybrid":
		return cpuimpl.ThreadPoolHybrid, nil
	}
	return 0, fmt.Errorf("unknown threading mode %q (serial|sse|futures|threadcreate|threadpool|hybrid)", s)
}

// workerSource adapts the worker's counters to the debug mux.
type workerSource struct {
	worker *remoteimpl.Worker
	start  time.Time
}

func (s *workerSource) Metrics() []metricsx.Sample {
	return []metricsx.Sample{
		{Name: "beagleworker_sessions", Help: "Live coordinator sessions.",
			Type: "gauge", Value: float64(s.worker.SessionCount())},
		{Name: "beagleworker_sessions_accepted_total", Help: "Sessions ever created.",
			Type: "counter", Value: float64(s.worker.AcceptedSessions())},
		{Name: "beagleworker_connections", Help: "Live coordinator connections.",
			Type: "gauge", Value: float64(s.worker.ConnCount())},
		{Name: "beagleworker_requests_total", Help: "Engine requests dispatched across all sessions.",
			Type: "counter", Value: float64(s.worker.RequestCount())},
		{Name: "beagleworker_uptime_seconds", Help: "Seconds since the worker started.",
			Type: "gauge", Value: time.Since(s.start).Seconds()},
	}
}

func (s *workerSource) Vars() map[string]any {
	return map[string]any{
		"sessions":          s.worker.SessionCount(),
		"sessions_accepted": s.worker.AcceptedSessions(),
		"connections":       s.worker.ConnCount(),
		"requests":          s.worker.RequestCount(),
	}
}

func (s *workerSource) RebalanceEvents() any { return nil }
func (s *workerSource) TraceSummary() any    { return nil }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "beagleworker:", err)
		os.Exit(1)
	}
}

// run is the whole worker process behind a testable seam: flags in args,
// structured logs on logw, lifetime bound to ctx (the signal context in
// main). It returns only after the wire server has drained and every
// side effect — the port file above all — has been cleaned up.
func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("beagleworker", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr       = fs.String("addr", "127.0.0.1:8381", "listen address (use :0 for an ephemeral port)")
		portFile   = fs.String("port-file", "", "write the bound address to this file once listening (for test harnesses)")
		threads    = fs.Int("threads", 0, "worker threads per hosted engine (0 = all cores)")
		threading  = fs.String("threading", defaultThreading, "CPU execution strategy: serial (the unvectorised reference)|sse|futures|threadcreate|threadpool|hybrid")
		sessionTTL = fs.Duration("session-ttl", 10*time.Minute, "how long a detached session survives for coordinator re-dial")
		debugAddr  = fs.String("debug-addr", "", "serve /metrics and /debug/vars on this address (advertised to coordinators for federation)")
		pprofOn    = fs.Bool("pprof", false, "expose /debug/pprof/ on the debug address (requires -debug-addr)")
		logJSON    = fs.Bool("log-json", false, "emit JSON structured logs instead of text")
		quiet      = fs.Bool("quiet", false, "suppress connection lifecycle logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(logw, nil)
	} else {
		handler = slog.NewTextHandler(logw, nil)
	}
	logger := slog.New(handler).With("component", "beagleworker")

	mode, err := parseMode(*threading)
	if err != nil {
		return err
	}
	var logf func(format string, args ...any)
	if !*quiet {
		logf = func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		}
	}

	// Bind the debug listener before building the worker so the hello reply
	// can advertise the resolved address (":0" resolves on bind).
	var debugLn net.Listener
	if *debugAddr != "" {
		debugLn, err = net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer debugLn.Close()
	} else if *pprofOn {
		return fmt.Errorf("-pprof requires -debug-addr")
	}

	opts := remoteimpl.WorkerOptions{
		Builder: func(g remoteimpl.Geometry, tr *trace.Tracer) (engine.Engine, error) {
			cfg := g.Config()
			cfg.Trace = tr
			if *threads > 0 {
				cfg.Threads = *threads
			}
			return cpuimpl.New(cfg, mode)
		},
		SessionTTL: *sessionTTL,
		Logf:       logf,
	}
	if debugLn != nil {
		opts.DebugAddr = debugLn.Addr().String()
	}
	worker, err := remoteimpl.NewWorker(opts)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
		defer os.Remove(*portFile)
	}

	var debugDone chan struct{}
	if debugLn != nil {
		srv := &http.Server{
			Handler:           metricsx.NewMux(&workerSource{worker: worker, start: time.Now()}, *pprofOn),
			ReadHeaderTimeout: 5 * time.Second,
		}
		debugDone = make(chan struct{})
		go func() {
			defer close(debugDone)
			srv.Serve(debugLn)
		}()
		defer func() {
			srv.Close()
			<-debugDone
		}()
		logger.Info("debug server listening", "debug_addr", debugLn.Addr().String(), "pprof", *pprofOn)
	}

	logger.Info("listening",
		"addr", ln.Addr().String(), "threading", mode.String(), "session_ttl", sessionTTL.String())

	err = worker.Serve(ctx, ln)
	if err != nil && ctx.Err() == nil {
		return err
	}
	logger.Info("drained",
		"sessions_accepted", worker.AcceptedSessions(),
		"sessions_live", worker.SessionCount(),
		"requests", worker.RequestCount())
	return nil
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/remoteimpl"
)

// syncBuffer is a goroutine-safe log sink: run's server goroutines may log
// while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startRun boots run() in a goroutine against an ephemeral port and waits
// for the port file to appear, returning the bound address, the cancel that
// simulates SIGTERM, and the channel run's error arrives on.
func startRun(t *testing.T, logs *syncBuffer, extraArgs ...string) (addr, portFile string, cancel context.CancelFunc, errc chan error) {
	t.Helper()
	portFile = filepath.Join(t.TempDir(), "worker.addr")
	args := append([]string{"-addr", "127.0.0.1:0", "-port-file", portFile}, extraArgs...)
	ctx, cancel := context.WithCancel(context.Background())
	errc = make(chan error, 1)
	go func() { errc <- run(ctx, args, logs) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if data, err := os.ReadFile(portFile); err == nil && len(data) > 0 {
			return string(data), portFile, cancel, errc
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("port file %s never appeared; logs:\n%s", portFile, logs.String())
		}
		select {
		case err := <-errc:
			t.Fatalf("run exited early: %v; logs:\n%s", err, logs.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestRunRemovesPortFileAndLogsDrainOnShutdown is the regression test for
// graceful shutdown: the port file a test harness waits on must not outlive
// the process, and the drain log must report how many sessions the worker
// accepted over its lifetime.
func TestRunRemovesPortFileAndLogsDrainOnShutdown(t *testing.T) {
	logs := &syncBuffer{}
	addr, portFile, cancel, errc := startRun(t, logs)
	defer cancel()

	// Touch the worker with a real session so the drain count is non-zero.
	hello, err := remoteimpl.Probe(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if hello.Cores <= 0 {
		t.Fatalf("probe returned %d cores", hello.Cores)
	}

	cancel() // SIGTERM equivalent: the signal context main() hands to run
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}

	if _, err := os.Stat(portFile); !os.IsNotExist(err) {
		t.Errorf("port file %s survived graceful shutdown (stat err %v)", portFile, err)
	}
	out := logs.String()
	if !strings.Contains(out, "drained") || !strings.Contains(out, "sessions_accepted") {
		t.Errorf("drain log missing sessions_accepted count; logs:\n%s", out)
	}
}

// TestRunDebugAddrServesMetrics asserts the -debug-addr surface: /metrics
// renders beagleworker_* families and the wire hello advertises the
// resolved debug address for coordinator federation.
func TestRunDebugAddrServesMetrics(t *testing.T) {
	logs := &syncBuffer{}
	addr, _, cancel, errc := startRun(t, logs, "-debug-addr", "127.0.0.1:0")
	defer func() {
		cancel()
		<-errc
	}()

	hello, err := remoteimpl.Probe(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if hello.DebugAddr == "" {
		t.Fatal("hello does not advertise the debug address")
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", hello.DebugAddr))
	if err != nil {
		t.Fatalf("scrape advertised debug address: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "beagleworker_sessions_accepted_total") {
		t.Errorf("worker /metrics missing beagleworker_sessions_accepted_total:\n%s", buf.String())
	}
}

// TestRunPprofRequiresDebugAddr asserts the flag dependency is enforced.
func TestRunPprofRequiresDebugAddr(t *testing.T) {
	logs := &syncBuffer{}
	err := run(context.Background(), []string{"-pprof"}, logs)
	if err == nil || !strings.Contains(err.Error(), "-debug-addr") {
		t.Fatalf("run(-pprof) = %v, want the -debug-addr requirement error", err)
	}
}

// TestThreadingNames holds -threading's default to the engine a flag-less
// library instance runs.
func TestThreadingNames(t *testing.T) {
	if got, err := parseMode(defaultThreading); err != nil || got != cpuimpl.Default {
		t.Fatalf("default -threading %q parses to %v, %v; want %v", defaultThreading, got, err, cpuimpl.Default)
	}
}

package metricsx

import (
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// nullSource is the minimal Source for mux tests.
type nullSource struct{}

func (nullSource) Metrics() []Sample    { return nil }
func (nullSource) Vars() map[string]any { return map[string]any{} }
func (nullSource) RebalanceEvents() any { return nil }
func (nullSource) TraceSummary() any    { return nil }

// TestPprofOptIn asserts the profiling endpoints exist only with pprof on.
func TestPprofOptIn(t *testing.T) {
	plain := httptest.NewServer(NewMux(nullSource{}, false))
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("/debug/pprof/ served with pprof off (status %d)", resp.StatusCode)
	}

	prof := httptest.NewServer(NewMux(nullSource{}, true))
	defer prof.Close()
	resp, err = http.Get(prof.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ index: status %d, want 200", resp.StatusCode)
	}
}

// TestPprofProfileIsParseable captures a 1-second CPU profile through the
// opt-in mux and checks the body really is a profile: a gzipped protobuf
// whose wire framing walks cleanly to EOF.
func TestPprofProfileIsParseable(t *testing.T) {
	if testing.Short() {
		t.Skip("1-second CPU profile capture")
	}
	srv := httptest.NewServer(NewMux(nullSource{}, true))
	defer srv.Close()

	// Burn a little CPU during the capture window so the profile has samples.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		x := 0.0
		for {
			select {
			case <-stop:
				return
			default:
				for i := 0; i < 1000; i++ {
					x += float64(i) * 1.000001
				}
			}
		}
	}()
	defer func() { close(stop); <-done }()

	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(srv.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("profile: status %d: %s", resp.StatusCode, body)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("profile body is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("decompress profile: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("empty profile")
	}
	if err := walkProto(raw); err != nil {
		t.Fatalf("profile is not valid protobuf wire format: %v", err)
	}
}

// walkProto validates protobuf wire framing without a generated decoder:
// every field must have a known wire type and its payload must fit.
func walkProto(b []byte) error {
	i := 0
	fields := 0
	for i < len(b) {
		key, n, err := readVarint(b[i:])
		if err != nil {
			return fmt.Errorf("field key at offset %d: %w", i, err)
		}
		i += n
		wire := key & 7
		switch wire {
		case 0: // varint
			_, n, err := readVarint(b[i:])
			if err != nil {
				return fmt.Errorf("varint at offset %d: %w", i, err)
			}
			i += n
		case 1: // fixed64
			if i+8 > len(b) {
				return fmt.Errorf("truncated fixed64 at offset %d", i)
			}
			i += 8
		case 2: // length-delimited
			l, n, err := readVarint(b[i:])
			if err != nil {
				return fmt.Errorf("length at offset %d: %w", i, err)
			}
			i += n
			if uint64(len(b)-i) < l {
				return fmt.Errorf("field at offset %d claims %d bytes, %d remain", i, l, len(b)-i)
			}
			i += int(l)
		case 5: // fixed32
			if i+4 > len(b) {
				return fmt.Errorf("truncated fixed32 at offset %d", i)
			}
			i += 4
		default:
			return fmt.Errorf("unknown wire type %d at offset %d", wire, i)
		}
		fields++
	}
	if fields == 0 {
		return fmt.Errorf("no fields")
	}
	return nil
}

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i]&0x80 == 0 {
			return v, i + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("truncated varint")
}

package metricsx

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

type fakeSource struct{ samples []Sample }

func (f fakeSource) Metrics() []Sample { return f.samples }
func (f fakeSource) Vars() map[string]any {
	return map[string]any{"batches": 3, "implementation": "CPU-serial"}
}
func (f fakeSource) RebalanceEvents() any { return []int{1, 2} }
func (f fakeSource) TraceSummary() any    { return map[string]int{"scheduler": 7} }

func testSamples() []Sample {
	return []Sample{
		{Name: "gobeagle_batches_total", Help: "partials batches", Type: "counter", Value: 3},
		{Name: "gobeagle_kernel_ops_total", Help: "ops per kernel", Type: "counter",
			Labels: map[string]string{"kernel": "partials"}, Value: 42},
		{Name: "gobeagle_kernel_ops_total",
			Labels: map[string]string{"kernel": "root"}, Value: 2},
		{Name: "gobeagle_effective_gflops", Help: "throughput", Value: 1.5},
	}
}

func TestWritePromFormat(t *testing.T) {
	var b strings.Builder
	WriteProm(&b, testSamples())
	out := b.String()
	for _, want := range []string{
		"# HELP gobeagle_batches_total partials batches",
		"# TYPE gobeagle_batches_total counter",
		"gobeagle_batches_total 3",
		`gobeagle_kernel_ops_total{kernel="partials"} 42`,
		`gobeagle_kernel_ops_total{kernel="root"} 2`,
		"# TYPE gobeagle_effective_gflops gauge", // default type
		"gobeagle_effective_gflops 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE header per family, even with several labeled samples.
	if n := strings.Count(out, "# TYPE gobeagle_kernel_ops_total"); n != 1 {
		t.Errorf("family header emitted %d times, want 1", n)
	}
}

func TestFormatLabelsEscaping(t *testing.T) {
	got := formatLabels(map[string]string{"b": `say "hi"`, "a": "x"})
	want := `{a="x",b="say \"hi\""}`
	if got != want {
		t.Errorf("formatLabels = %q, want %q", got, want)
	}
	if formatLabels(nil) != "" {
		t.Error("nil labels must render empty")
	}
}

func TestMuxEndpoints(t *testing.T) {
	srv := httptest.NewServer(NewMux(fakeSource{samples: testSamples()}, false))
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(body, "gobeagle_batches_total 3") {
		t.Errorf("/metrics missing sample:\n%s", body)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}

	body, ctype = get("/debug/vars")
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	if vars["implementation"] != "CPU-serial" {
		t.Errorf("/debug/vars = %v", vars)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/debug/vars content type %q", ctype)
	}

	body, _ = get("/debug/rebalance")
	var events []int
	if err := json.Unmarshal([]byte(body), &events); err != nil || len(events) != 2 {
		t.Errorf("/debug/rebalance = %q (err %v)", body, err)
	}

	body, _ = get("/debug/trace")
	var sum map[string]int
	if err := json.Unmarshal([]byte(body), &sum); err != nil || sum["scheduler"] != 7 {
		t.Errorf("/debug/trace = %q (err %v)", body, err)
	}

	body, _ = get("/")
	if !strings.Contains(body, "/metrics") {
		t.Errorf("index missing endpoint list:\n%s", body)
	}

	if resp, err := http.Get(srv.URL + "/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown path status %d, want 404", resp.StatusCode)
		}
	}
}

func TestWriteJSONNil(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, nil)
	if got := strings.TrimSpace(rec.Body.String()); got != "null" {
		t.Errorf("nil body = %q, want null", got)
	}
}

package metricsx

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestInjectLabel(t *testing.T) {
	cases := []struct {
		line, want string
	}{
		{`up 1`, `up{worker="w0"} 1`},
		{`up{} 1`, `up{worker="w0"} 1`},
		{`req_total{code="200"} 5`, `req_total{worker="w0",code="200"} 5`},
		// A label value containing a brace or space must not confuse the
		// insertion point.
		{`req_total{key="s4/p64{x} y"} 5`, `req_total{worker="w0",key="s4/p64{x} y"} 5`},
		{`up 1 1700000000`, `up{worker="w0"} 1 1700000000`},
		{`malformed`, `malformed`},
	}
	for _, tc := range cases {
		if got := injectLabel(tc.line, "worker", "w0"); got != tc.want {
			t.Errorf("injectLabel(%q) = %q, want %q", tc.line, got, tc.want)
		}
	}
	// Label values needing escaping are escaped on injection.
	got := injectLabel(`up 1`, "worker", `a"b\c`)
	want := `up{worker="a\"b\\c"} 1`
	if got != want {
		t.Errorf("escaped injection = %q, want %q", got, want)
	}
}

// TestWriteClusterFederatesAndStaysLintClean federates local samples with a
// live fake worker and a dead target: shared families merge contiguously,
// every remote series gains the worker label, the up-gauge distinguishes the
// live target from the dead one, and the whole document passes the
// structural lint.
func TestWriteClusterFederatesAndStaysLintClean(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(strings.Join([]string{
			"# HELP beagleworker_sessions Live sessions.",
			"# TYPE beagleworker_sessions gauge",
			"beagleworker_sessions 2",
			"# HELP shared_total Shared across processes.",
			"# TYPE shared_total counter",
			`shared_total{kind="a"} 7`,
			"",
		}, "\n")))
	}))
	defer worker.Close()

	self := []Sample{
		{Name: "beagled_requests_total", Help: "requests", Type: "counter", Value: 10},
		{Name: "shared_total", Help: "Shared across processes.", Type: "counter",
			Labels: map[string]string{"kind": "a"}, Value: 3},
	}
	targets := []Target{
		{Label: "w0", URL: worker.URL},
		{Label: "w-dead", URL: "http://127.0.0.1:1/metrics"},
	}
	var buf bytes.Buffer
	fed := &Federator{UpMetric: "cluster_scrape_up"}
	if err := fed.WriteCluster(&buf, self, "self", targets); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		`beagled_requests_total{worker="self"} 10`,
		`beagleworker_sessions{worker="w0"} 2`,
		`shared_total{kind="a",worker="self"} 3`,
		`shared_total{worker="w0",kind="a"} 7`,
		`cluster_scrape_up{worker="w0"} 1`,
		`cluster_scrape_up{worker="w-dead"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("federated output missing %q:\n%s", want, out)
		}
	}
	if problems := LintProm(strings.NewReader(out)); len(problems) > 0 {
		t.Fatalf("federated document fails lint:\n%s\n---\n%s", strings.Join(problems, "\n"), out)
	}
}

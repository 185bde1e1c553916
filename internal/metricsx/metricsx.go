// Package metricsx is the library's debug HTTP surface: a tiny, dependency-
// free exporter that renders live metric samples in the Prometheus text
// exposition format and serves expvar-style JSON endpoints. It knows nothing
// about phylogenetics — the public gobeagle package adapts an Instance's
// telemetry, rebalance state and trace summary through the Source interface,
// so this package stays import-cycle-free and independently testable.
package metricsx

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// Sample is one live metric observation. Name must be a valid Prometheus
// metric name (the exporter does not rewrite it); Labels may be nil.
type Sample struct {
	Name   string
	Help   string
	Type   string // "counter" or "gauge"
	Labels map[string]string
	Value  float64
}

// Source provides the live views the debug server renders. Implementations
// must be safe for concurrent calls: the HTTP server invokes them from
// request goroutines while the instance is computing.
type Source interface {
	// Metrics returns the current samples for GET /metrics.
	Metrics() []Sample
	// Vars returns the expvar-style variable map for GET /debug/vars.
	Vars() map[string]any
	// RebalanceEvents returns the multi-device repartition history for
	// GET /debug/rebalance (nil or empty when rebalancing is off).
	RebalanceEvents() any
	// TraceSummary returns the per-layer span summary for GET /debug/trace.
	TraceSummary() any
}

// NewMux builds the debug server's routes:
//
//	/              endpoint index
//	/metrics       Prometheus text exposition
//	/debug/vars    expvar-style JSON variables
//	/debug/rebalance  multi-device repartition history (JSON)
//	/debug/trace   span-tracer summary per layer and kind (JSON)
//	/debug/pprof/  runtime profiling (only with pprof)
//
// Profiling is opt-in: the endpoints expose CPU and heap internals, so
// commands gate pprof behind an explicit flag.
func NewMux(src Source, pprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "gobeagle debug server")
		fmt.Fprintln(w, "  /metrics          Prometheus text metrics")
		fmt.Fprintln(w, "  /debug/vars       expvar-style JSON variables")
		fmt.Fprintln(w, "  /debug/rebalance  multi-device repartition history")
		fmt.Fprintln(w, "  /debug/trace      span-tracer summary")
		if pprof {
			fmt.Fprintln(w, "  /debug/pprof/     runtime profiling")
		}
	})
	if pprof {
		registerPprof(mux)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteProm(w, src.Metrics())
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, src.Vars())
	})
	mux.HandleFunc("/debug/rebalance", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, src.RebalanceEvents())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, src.TraceSummary())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if v == nil {
		fmt.Fprintln(w, "null")
		return
	}
	enc.Encode(v)
}

// WriteProm renders samples in the Prometheus text exposition format,
// emitting one HELP/TYPE header per metric family in order of first
// appearance and keeping samples of a family together.
func WriteProm(w io.Writer, samples []Sample) {
	byName := map[string][]Sample{}
	var order []string
	for _, s := range samples {
		if _, seen := byName[s.Name]; !seen {
			order = append(order, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	var b strings.Builder
	for _, name := range order {
		fam := byName[name]
		if fam[0].Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, fam[0].Help)
		}
		typ := fam[0].Type
		if typ == "" {
			typ = "gauge"
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		for _, s := range fam {
			b.WriteString(name)
			b.WriteString(formatLabels(s.Labels))
			fmt.Fprintf(&b, " %g\n", s.Value)
		}
	}
	w.Write([]byte(b.String()))
}

// formatLabels renders a sorted {k="v",...} label set, escaping values per
// the exposition format.
func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		v := labels[k]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		fmt.Fprintf(&b, `%s="%s"`, k, v)
	}
	b.WriteByte('}')
	return b.String()
}

package metricsx

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// This file is the metrics-federation writer: a coordinator scrapes each
// worker's /metrics endpoint, tags every sample with a worker label and
// merges the result with its own samples into one cluster-wide exposition
// document. The remote text is relabeled line by line — sample lines gain
// the label at their label-set boundary, HELP/TYPE headers are merged per
// family in first-appearance order — so the aggregated view is itself valid
// exposition text and families stay contiguous regardless of how many
// processes contributed to them.

// Target is one remote scrape target.
type Target struct {
	// Label is the worker label value samples from this target carry.
	Label string
	// URL is the full metrics URL, e.g. "http://10.0.0.7:9500/metrics".
	URL string
}

// Federator merges local samples with remote scrapes into one worker-
// labeled exposition document. The zero value is usable.
type Federator struct {
	// Client performs the scrapes; nil uses a 3-second-timeout default.
	Client *http.Client
	// LabelKey is the injected label name. Default "worker".
	LabelKey string
	// UpMetric, when non-empty, names a per-target gauge (1 = the last
	// scrape succeeded, 0 = it failed) appended to the document, e.g.
	// "beagled_cluster_scrape_up".
	UpMetric string
}

// family accumulates one metric family's header and rendered sample lines
// across all contributing processes.
type family struct {
	help  string
	typ   string
	lines []string
}

func (f *Federator) client() *http.Client {
	if f.Client != nil {
		return f.Client
	}
	return &http.Client{Timeout: 3 * time.Second}
}

// WriteCluster writes the federated exposition document: the local samples
// (labeled selfLabel) first, then each target's scrape in target order.
// Scrape failures do not fail the write — the target's samples are simply
// absent for this scrape and its UpMetric gauge reports 0. The returned
// error is reserved for write failures on w.
func (f *Federator) WriteCluster(w io.Writer, self []Sample, selfLabel string, targets []Target) error {
	key := f.LabelKey
	if key == "" {
		key = "worker"
	}
	var order []string
	fams := map[string]*family{}
	fam := func(name string) *family {
		fm, ok := fams[name]
		if !ok {
			fm = &family{}
			fams[name] = fm
			order = append(order, name)
		}
		return fm
	}
	addSample := func(s Sample, label string) {
		fm := fam(s.Name)
		if fm.help == "" {
			fm.help = s.Help
		}
		if fm.typ == "" {
			fm.typ = s.Type
		}
		labels := make(map[string]string, len(s.Labels)+1)
		for k, v := range s.Labels {
			labels[k] = v
		}
		labels[key] = label
		fm.lines = append(fm.lines, s.Name+formatLabels(labels)+" "+fmt.Sprintf("%g", s.Value))
	}

	for _, s := range self {
		addSample(s, selfLabel)
	}

	var ups []Sample
	for _, t := range targets {
		err := f.scrape(t, key, fam)
		up := 1.0
		if err != nil {
			up = 0
		}
		if f.UpMetric != "" {
			ups = append(ups, Sample{
				Name:   f.UpMetric,
				Help:   "Whether the last scrape of this worker's metrics endpoint succeeded.",
				Type:   "gauge",
				Labels: map[string]string{key: t.Label},
				Value:  up,
			})
		}
	}
	for _, s := range ups {
		fm := fam(s.Name)
		if fm.help == "" {
			fm.help = s.Help
		}
		if fm.typ == "" {
			fm.typ = s.Type
		}
		fm.lines = append(fm.lines, s.Name+formatLabels(s.Labels)+" "+fmt.Sprintf("%g", s.Value))
	}

	var b strings.Builder
	for _, name := range order {
		fm := fams[name]
		if fm.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, fm.help)
		}
		typ := fm.typ
		if typ == "" {
			typ = "untyped"
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		for _, line := range fm.lines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// scrape fetches one target and merges its relabeled lines into the family
// table.
func (f *Federator) scrape(t Target, key string, fam func(string) *family) error {
	resp, err := f.client().Get(t.URL)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metricsx: scrape %s: status %s", t.URL, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimRight(line, "\r")
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			name, text, ok := splitHeader(line[len("# HELP "):])
			if ok {
				if fm := fam(name); fm.help == "" {
					fm.help = text
				}
			}
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, ok := splitHeader(line[len("# TYPE "):])
			if ok {
				if fm := fam(name); fm.typ == "" {
					fm.typ = typ
				}
			}
		case strings.HasPrefix(line, "#"):
			// Other comments are dropped.
		default:
			name := sampleName(line)
			if name == "" {
				continue
			}
			fam(name).lines = append(fam(name).lines, injectLabel(line, key, t.Label))
		}
	}
	return nil
}

// splitHeader splits "name rest" of a HELP/TYPE header body.
func splitHeader(s string) (name, rest string, ok bool) {
	i := strings.IndexByte(s, ' ')
	if i <= 0 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

// sampleName extracts the metric name of a sample line: the prefix up to
// the label block or the value separator, whichever comes first.
func sampleName(line string) string {
	end := len(line)
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		end = i
	}
	return line[:end]
}

// injectLabel rewrites one sample line so its label set includes key=value.
// The insertion point is the label-set boundary — the opening brace when the
// line has labels, otherwise just before the value — so label VALUES (which
// may contain braces or spaces inside their quotes) are never parsed.
func injectLabel(line, key, value string) string {
	esc := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(value)
	pair := key + `="` + esc + `"`
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if brace >= 0 && (space < 0 || brace < space) {
		if len(line) > brace+1 && line[brace+1] == '}' {
			return line[:brace+1] + pair + line[brace+1:]
		}
		return line[:brace+1] + pair + "," + line[brace+1:]
	}
	if space < 0 {
		return line // malformed; pass through untouched
	}
	return line[:space] + "{" + pair + "}" + line[space:]
}

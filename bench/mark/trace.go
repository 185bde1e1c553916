package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the harness made into a layer: its name, start and
// end (ns since the tracer's origin), the span that caused it (index in the
// same lane, -1 at top level) and the operation it belongs to. Spans of one
// operation (an evaluation, a move, a request) share op.
type span struct {
	name       string
	workload   string
	start, end int64
	parent     int32
	op         int64
}

// lane is one goroutine's span list; each lane is written by a single
// goroutine, so recording takes no lock. A nil lane records nothing and
// costs one comparison per call — the untraced runs pass nil.
type lane struct {
	tr       *tracer
	id       int
	workload string
	spans    []span
	stack    []int32
}

// tracer holds the spans of a traced run in memory until the run ends.
type tracer struct {
	t0    time.Time
	lanes []*lane
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newLane adds a lane; call it from the goroutine that starts the workers,
// before they run.
func (t *tracer) newLane(workload string) *lane {
	if t == nil {
		return nil
	}
	l := &lane{tr: t, id: len(t.lanes), workload: workload, spans: make([]span, 0, 1<<12)}
	t.lanes = append(t.lanes, l)
	return l
}

// sibling adds a lane for another goroutine of the same workload.
func (l *lane) sibling() *lane {
	if l == nil {
		return nil
	}
	return l.tr.newLane(l.workload)
}

// begin opens a span under the lane's innermost open span.
func (l *lane) begin(name string, op int64) int32 {
	if l == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{name: name, workload: l.workload, parent: parent, op: op,
		start: int64(time.Since(l.tr.t0))})
	l.stack = append(l.stack, id)
	return id
}

// end closes the span begin returned.
func (l *lane) end(id int32) {
	if l == nil {
		return
	}
	l.spans[id].end = int64(time.Since(l.tr.t0))
	l.stack = l.stack[:len(l.stack)-1]
}

// mark returns the current span count, for summing only the spans recorded
// after it.
func (l *lane) mark() int {
	if l == nil {
		return 0
	}
	return len(l.spans)
}

// spanTotals sums the durations (ns) per span name of the lane's spans from
// index from on.
func (l *lane) spanTotals(from int) map[string]float64 {
	total := map[string]float64{}
	for _, s := range l.spans[from:] {
		total[s.name] += float64(s.end - s.start)
	}
	return total
}

// selfNs is each span's self time: its duration minus the part its direct
// children cover.
func (l *lane) selfNs() []int64 {
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores every span as Chrome trace-event JSON at path. args carry the
// operation id, the parent span's name and the span's self time.
func (t *tracer) write(path string) error {
	events := []chromeEvent{}
	for _, l := range t.lanes {
		selfNs := l.selfNs()
		for i, s := range l.spans {
			parent := ""
			if s.parent >= 0 {
				parent = l.spans[s.parent].name
			}
			events = append(events, chromeEvent{
				Name: s.name, Cat: s.workload, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: l.id,
				Args: map[string]any{"op": s.op, "parent": parent, "self_us": float64(selfNs[i]) / 1e3},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

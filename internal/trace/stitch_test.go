package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestWriteStitchedRendersProcessTracks asserts the stitched export: local
// spans stay on the layer processes, each remote process gets its own pid
// with process_name metadata, same-named processes merge, and request-tagged
// spans carry args.req on both sides so a request can be followed across the
// process boundary.
func TestWriteStitchedRendersProcessTracks(t *testing.T) {
	local := []Span{
		{Kind: KindServeRequest, Lane: -1, Start: 100, Dur: 9000, Arg0: 200, Arg1: 2, Req: 77},
		{Kind: KindRPC, Lane: 0, Start: 2000, Dur: 3000, Arg0: 1, Req: 77},
	}
	procs := []Process{
		{Name: "remote worker 0 (127.0.0.1:9)", Spans: []Span{
			{Kind: KindRemoteApply, Lane: -1, Start: 2500, Dur: 1800, Arg0: 7, Req: 77},
		}},
		{Name: "remote worker 0 (127.0.0.1:9)", Spans: []Span{
			{Kind: KindBatch, Start: 2600, Dur: 1500, Arg0: 3},
		}},
		{Name: "remote worker 1 (127.0.0.1:10)", Spans: []Span{
			{Kind: KindRemoteApply, Lane: -1, Start: 2700, Dur: 1000, Arg0: 7, Req: 78},
		}},
	}

	var buf bytes.Buffer
	if err := WriteStitched(&buf, local, procs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("stitched output is not valid JSON: %v", err)
	}

	procNames := map[string]int{} // name -> pid
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			args := ev["args"].(map[string]any)
			procNames[args["name"].(string)] = int(ev["pid"].(float64))
		}
	}
	pid0, ok := procNames["remote worker 0 (127.0.0.1:9)"]
	if !ok {
		t.Fatalf("no process_name metadata for worker 0; have %v", procNames)
	}
	pid1, ok := procNames["remote worker 1 (127.0.0.1:10)"]
	if !ok {
		t.Fatalf("no process_name metadata for worker 1; have %v", procNames)
	}
	if pid0 == pid1 {
		t.Fatalf("distinct workers share pid %d", pid0)
	}
	if _, ok := procNames[LayerServe.String()]; !ok {
		t.Fatalf("local serve layer lost its process track; have %v", procNames)
	}

	// Request 77 must appear in a local span and a worker-0 span.
	pidsForReq := map[int]bool{}
	worker0Spans := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			continue
		}
		pid := int(ev["pid"].(float64))
		if pid == pid0 {
			worker0Spans++
		}
		if args, ok := ev["args"].(map[string]any); ok {
			if req, ok := args["req"].(float64); ok && req == 77 {
				pidsForReq[pid] = true
			}
		}
	}
	if worker0Spans != 2 {
		t.Fatalf("worker 0 (merged from two drains) has %d spans, want 2", worker0Spans)
	}
	if len(pidsForReq) < 2 {
		t.Fatalf("request 77 seen in %d processes, want >= 2 (stitching broken)", len(pidsForReq))
	}
}

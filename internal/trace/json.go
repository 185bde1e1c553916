package trace

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// This file renders snapshots as Chrome trace-event JSON (the "JSON Array
// Format" with an object wrapper), loadable in Perfetto and chrome://tracing.
// Layers become processes, lanes become threads, and every span is one
// complete event (ph "X"). Host layers share the tracer's epoch timeline;
// the device layer runs on the modeled device clock, which starts at zero —
// its process is named "device (modeled clock)" to make the distinct
// timebase explicit.

// event is one trace-event object. Timestamps and durations are microseconds
// (the trace-event unit); fractional values keep nanosecond resolution.
type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level trace-event JSON object.
type traceFile struct {
	TraceEvents     []event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// spanArgs renders the kind-specific magnitudes under meaningful names.
func spanArgs(s Span) map[string]any {
	args := map[string]any{}
	if s.Batch != 0 {
		args["batch"] = s.Batch
	}
	switch s.Kind {
	case KindBatch, KindBackend:
		args["ops"] = s.Arg0
	case KindLevel:
		args["level"], _ = levelOf(s.Arg0)
		args["ops"] = s.Arg1
	case KindTask, KindServeCompile, KindEdge, KindRescale:
		args["patterns"] = s.Arg0
	case KindKernel:
		args["work_items"] = s.Arg0
	case KindTransfer:
		args["bytes"] = s.Arg0
	case KindBarrier:
		args["backends"] = s.Arg0
	case KindRebalance:
		args["patterns_moved"] = s.Arg0
		// The rebalance decision rides its predicted speedup ×1000 in Arg1.
		args["predicted_speedup"] = float64(s.Arg1) / 1000
	case KindMigrate:
		args["patterns_moved"] = s.Arg0
	case KindMatrices, KindDerivatives:
		args["matrices"] = s.Arg0
	case KindRPC:
		args["op"] = s.Arg0
		args["bytes"] = s.Arg1
	case KindServeRequest:
		args["status"] = s.Arg0
		args["batched"] = s.Arg1
	case KindRemoteApply:
		args["op"] = s.Arg0
	}
	if s.Req != 0 {
		args["req"] = s.Req
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// Process is one remote process's contribution to a stitched trace: the
// spans a worker recorded on its own tracer, already rebased into the local
// timeline by whoever drained them (see remoteimpl's span drain). Name is
// the process track label, e.g. "remote worker 0 (10.0.0.7:9400)".
type Process struct {
	Name  string
	Spans []Span
}

// remotePidBase keeps remote process ids clear of the local layer pids
// (1..numLayers) with room for future layers.
const remotePidBase = 100

// WriteJSON writes the spans as a Chrome trace-event JSON document. Spans
// should come from Tracer.Snapshot; an empty slice yields a valid trace with
// only metadata.
func WriteJSON(w io.Writer, spans []Span) error {
	return WriteStitched(w, spans, nil)
}

// WriteStitched writes one Chrome trace-event JSON document combining the
// local spans (rendered as one process per layer, exactly like WriteJSON)
// with per-remote-process tracks: each Process becomes its own pid whose
// threads are the worker's layer/lane pairs. Processes with the same Name
// (the same worker drained through several pooled instances) are merged
// into one track. Request identities survive stitching — every span's
// args.req carries the served request id across process boundaries, so a
// viewer (or cmd/beagletrace) can follow one request from the serve layer
// through the client RPC span into the worker's scheduler and kernels, with
// the wire-time gap visible between them.
func WriteStitched(w io.Writer, local []Span, procs []Process) error {
	type laneKey struct {
		layer Layer
		lane  int
	}
	usedLayers := map[Layer]bool{}
	usedLanes := map[laneKey]bool{}

	var events []event
	for _, s := range local {
		layer := s.Kind.Layer()
		lane := int(s.Lane)
		if lane < 0 {
			lane = 0
		}
		usedLayers[layer] = true
		usedLanes[laneKey{layer, lane}] = true
		events = append(events, event{
			Name: s.Kind.String(),
			Ph:   "X",
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.Dur) / 1e3,
			Pid:  int(layer) + 1, // pid 0 renders poorly in some viewers
			Tid:  lane,
			Cat:  layer.String(),
			Args: spanArgs(s),
		})
	}

	// Metadata events name the processes (layers) and threads (lanes) so the
	// viewer shows "scheduler", "workers", ... instead of bare pids.
	lanes := make([]laneKey, 0, len(usedLanes))
	for k := range usedLanes {
		lanes = append(lanes, k)
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].layer != lanes[j].layer {
			return lanes[i].layer < lanes[j].layer
		}
		return lanes[i].lane < lanes[j].lane
	})
	var meta []event
	for layer := Layer(0); layer < numLayers; layer++ {
		if !usedLayers[layer] {
			continue
		}
		meta = append(meta, event{
			Name: "process_name", Ph: "M", Pid: int(layer) + 1,
			Args: map[string]any{"name": layer.String()},
		})
		meta = append(meta, event{
			Name: "process_sort_index", Ph: "M", Pid: int(layer) + 1,
			Args: map[string]any{"sort_index": int(layer)},
		})
	}
	for _, k := range lanes {
		meta = append(meta, event{
			Name: "thread_name", Ph: "M", Pid: int(k.layer) + 1, Tid: k.lane,
			Args: map[string]any{"name": laneName(k.layer, k.lane)},
		})
	}

	// Remote process tracks. Spans keep their own layer/lane identity as
	// threads within the worker's process: tid packs (layer, lane).
	pidByName := map[string]int{}
	var procOrder []string
	for _, p := range procs {
		if _, ok := pidByName[p.Name]; !ok {
			pidByName[p.Name] = remotePidBase + len(procOrder)
			procOrder = append(procOrder, p.Name)
		}
	}
	usedProcLanes := map[string]map[laneKey]bool{}
	for _, p := range procs {
		pid := pidByName[p.Name]
		for _, s := range p.Spans {
			layer := s.Kind.Layer()
			lane := int(s.Lane)
			if lane < 0 {
				lane = 0
			}
			if usedProcLanes[p.Name] == nil {
				usedProcLanes[p.Name] = map[laneKey]bool{}
			}
			usedProcLanes[p.Name][laneKey{layer, lane}] = true
			events = append(events, event{
				Name: s.Kind.String(),
				Ph:   "X",
				Ts:   float64(s.Start) / 1e3,
				Dur:  float64(s.Dur) / 1e3,
				Pid:  pid,
				Tid:  int(layer)*1024 + lane,
				Cat:  layer.String(),
				Args: spanArgs(s),
			})
		}
	}
	for i, name := range procOrder {
		pid := pidByName[name]
		meta = append(meta, event{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
		meta = append(meta, event{
			Name: "process_sort_index", Ph: "M", Pid: pid,
			Args: map[string]any{"sort_index": int(numLayers) + i},
		})
		pl := make([]laneKey, 0, len(usedProcLanes[name]))
		for k := range usedProcLanes[name] {
			pl = append(pl, k)
		}
		sort.Slice(pl, func(i, j int) bool {
			if pl[i].layer != pl[j].layer {
				return pl[i].layer < pl[j].layer
			}
			return pl[i].lane < pl[j].lane
		})
		for _, k := range pl {
			meta = append(meta, event{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: int(k.layer)*1024 + k.lane,
				Args: map[string]any{"name": k.layer.String() + " " + laneName(k.layer, k.lane)},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: append(meta, events...), DisplayTimeUnit: "ns"})
}

// laneName labels one thread track within a layer.
func laneName(layer Layer, lane int) string {
	switch layer {
	case LayerWorker:
		return "worker " + strconv.Itoa(lane)
	case LayerDevice:
		return "queue " + strconv.Itoa(lane)
	case LayerMulti:
		return "backend " + strconv.Itoa(lane)
	case LayerNet:
		return "link " + strconv.Itoa(lane)
	default:
		return "lane " + strconv.Itoa(lane)
	}
}

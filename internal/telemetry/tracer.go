package telemetry

import (
	"sync/atomic"
	"time"
)

// TraceCapacity is the number of most-recent dependency-level records the
// batch tracer retains.
const TraceCapacity = 256

// LevelTrace is one recorded scheduler phase: Ops operations run as Tasks
// concurrent tasks completing in Wall time — a dependency level, one task per
// operation, or a whole batch, one task per pattern slab. Batch numbers
// UpdatePartials calls 1-based; Level indexes the phase within the batch.
type LevelTrace struct {
	Batch uint64
	Level int
	Ops   int
	Tasks int
	Wall  time.Duration
}

// traceRing is a lock-free fixed-capacity ring of the most recent level
// traces. Writers claim monotonically increasing sequence numbers; each slot
// holds an immutable *LevelTrace behind an atomic pointer, so concurrent
// snapshots read consistent records without locking writers out.
type traceRing struct {
	next  atomic.Uint64
	slots [TraceCapacity]atomic.Pointer[traceSlot]
}

// traceSlot pairs a record with its global sequence number so snapshots can
// order records and detect wrap-around.
type traceSlot struct {
	seq   uint64
	trace LevelTrace
}

func (r *traceRing) add(t *LevelTrace) {
	seq := r.next.Add(1) - 1
	r.slots[seq%TraceCapacity].Store(&traceSlot{seq: seq, trace: *t})
}

func (r *traceRing) reset() {
	r.next.Store(0)
	for i := range r.slots {
		r.slots[i].Store(nil)
	}
}

// snapshot returns the retained traces, oldest first.
func (r *traceRing) snapshot() []LevelTrace {
	var got []*traceSlot
	for i := range r.slots {
		if s := r.slots[i].Load(); s != nil {
			got = append(got, s)
		}
	}
	// Insertion sort by sequence: the ring is small and nearly ordered.
	for i := 1; i < len(got); i++ {
		for j := i; j > 0 && got[j-1].seq > got[j].seq; j-- {
			got[j-1], got[j] = got[j], got[j-1]
		}
	}
	out := make([]LevelTrace, len(got))
	for i, s := range got {
		out[i] = s.trace
	}
	return out
}

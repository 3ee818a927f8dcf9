package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one request's lifecycle record: who it was, how it was served,
// and where its time went. All duration fields are nanoseconds. A span with
// an empty Cause succeeded.
type Span struct {
	// ID is the server-assigned request ID (monotonic per process).
	ID uint64 `json:"id"`
	// Model and Batch identify the program variant that served the request
	// (Batch is the coalesced micro-batch size it rode in, 1 = solo).
	Model string `json:"model"`
	Batch int    `json:"batch_size"`
	// Start is when the server accepted the request.
	Start time.Time `json:"start"`
	// AssemblyNs is the micro-batcher window wait, QueueNs the worker-pool
	// wait, ExecNs the session run, TotalNs the end-to-end latency.
	AssemblyNs int64 `json:"assembly_ns"`
	QueueNs    int64 `json:"queue_ns"`
	ExecNs     int64 `json:"exec_ns"`
	TotalNs    int64 `json:"total_ns"`
	// Cause labels a failure ("validation", "deadline", ...); empty means
	// the request succeeded. Error carries the error text.
	Cause string `json:"cause,omitempty"`
	Error string `json:"error,omitempty"`
}

// traceSlot is one ring entry with its own lock — the striping that keeps
// concurrent writers off each other: two recorders contend only when they
// land on the same slot (ring wrapped a full lap between them).
type traceSlot struct {
	mu   sync.Mutex
	span Span
	set  bool
}

// TraceRing is a fixed-capacity, lock-striped ring buffer of Spans. Record
// claims a slot with one atomic increment and takes only that slot's lock,
// so writers scale with the ring size; Snapshot locks slots one at a time.
// Recording never allocates.
type TraceRing struct {
	slots []traceSlot
	mask  uint64
	next  atomic.Uint64
}

// NewTraceRing creates a ring holding the most recent `size` spans (rounded
// up to a power of two, minimum 1).
func NewTraceRing(size int) *TraceRing {
	n := 1
	for n < size {
		n <<= 1
	}
	return &TraceRing{slots: make([]traceSlot, n), mask: uint64(n - 1)}
}

// Record stores a span, overwriting the oldest entry once the ring is full.
// Allocation-free.
func (r *TraceRing) Record(sp Span) {
	s := &r.slots[(r.next.Add(1)-1)&r.mask]
	s.mu.Lock()
	s.span = sp
	s.set = true
	s.mu.Unlock()
}

// Len reports how many spans are currently held (capacity once wrapped).
func (r *TraceRing) Len() int {
	n := r.next.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Snapshot returns up to n spans, newest first (by request ID — concurrent
// completions may land in the ring slightly out of order). n <= 0 means
// all.
func (r *TraceRing) Snapshot(n int) []Span {
	out := make([]Span, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.set {
			out = append(out, s.span)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

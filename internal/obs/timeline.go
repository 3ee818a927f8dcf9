package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SpanKind classifies one timeline span.
type SpanKind uint8

const (
	// SpanOp is one operator kernel execution on a lane.
	SpanOp SpanKind = iota
	// SpanRecvWait is time a lane spent blocked on a cross-lane channel
	// receive before a value arrived (Peer is the producing lane).
	SpanRecvWait
	// SpanSend is the instant a lane handed a value to a consumer lane's
	// channel (Peer is the consuming lane). Duration is zero.
	SpanSend
)

// String returns the stable label used in exports.
func (k SpanKind) String() string {
	switch k {
	case SpanOp:
		return "op"
	case SpanRecvWait:
		return "recv_wait"
	case SpanSend:
		return "send"
	}
	return "unknown"
}

// OpSpan is one timestamped event of a run's execution timeline: an operator
// kernel execution, a blocked cross-lane receive, or a channel send. Times
// are nanosecond offsets from the run's start, so spans from different lanes
// share one clock.
type OpSpan struct {
	Kind SpanKind `json:"kind"`
	// Lane is the lane (cluster goroutine) the event happened on.
	Lane int32 `json:"lane"`
	// Name is the node name for op spans and the value name for
	// recv-wait/send spans.
	Name string `json:"name"`
	// Op is the operator type (op spans only).
	Op string `json:"op,omitempty"`
	// StartNs/DurNs place the span on the run's clock.
	StartNs int64 `json:"start_ns"`
	DurNs   int64 `json:"dur_ns"`
	// Peer is the other lane of a transfer: the producer for recv-wait
	// spans, the consumer for send spans. -1 for op spans.
	Peer int32 `json:"peer"`
}

// EndNs is the span's end offset on the run clock.
func (s OpSpan) EndNs() int64 { return s.StartNs + s.DurNs }

// RunTimeline is one sampled run's complete execution timeline.
type RunTimeline struct {
	// Seq is the 1-based run number on the plan the sample came from.
	Seq int64 `json:"seq"`
	// Start is the wall-clock start of the run.
	Start time.Time `json:"start"`
	// WallNs is the run's wall time (0 until committed).
	WallNs int64 `json:"wall_ns"`
	// Lanes is the plan's lane count.
	Lanes int `json:"lanes"`
	// Complete is false when the run failed or was cancelled; the spans
	// then cover only the work done before the unwind.
	Complete bool `json:"complete"`
	// Spans holds every recorded event, grouped by lane and in per-lane
	// time order (lanes are concatenated; use StartNs to interleave).
	Spans []OpSpan `json:"spans"`
}

// OpTimeNs sums the duration of every operator span — the run's total
// kernel busy time across lanes.
func (r *RunTimeline) OpTimeNs() int64 {
	var t int64
	for _, s := range r.Spans {
		if s.Kind == SpanOp {
			t += s.DurNs
		}
	}
	return t
}

// WaitTimeNs sums the duration of every recv-wait span — the run's total
// blocked-on-message time across lanes (the run's slack).
func (r *RunTimeline) WaitTimeNs() int64 {
	var t int64
	for _, s := range r.Spans {
		if s.Kind == SpanRecvWait {
			t += s.DurNs
		}
	}
	return t
}

// RunCapture is the in-flight recording state of one sampled run. Each lane
// goroutine appends only to its own per-lane slice, so recording needs no
// locks; Commit flattens the lanes into a RunTimeline and publishes it to
// the Timeline's ring. A nil *RunCapture ignores all calls — the executor's
// hot loop records through one nil check per event site.
type RunCapture struct {
	tl    *Timeline
	seq   int64
	start time.Time
	lanes [][]OpSpan
}

// Start returns the capture's run-start instant; the executor passes event
// times as time.Time and the capture converts to run-clock offsets.
func (c *RunCapture) offset(t time.Time) int64 { return int64(t.Sub(c.start)) }

// Op records one kernel execution on a lane. Safe only from that lane's
// goroutine (the per-lane append discipline). Nil-safe.
func (c *RunCapture) Op(lane int, name, op string, start time.Time, dur time.Duration) {
	if c == nil {
		return
	}
	c.lanes[lane] = append(c.lanes[lane], OpSpan{
		Kind: SpanOp, Lane: int32(lane), Name: name, Op: op,
		StartNs: c.offset(start), DurNs: int64(dur), Peer: -1,
	})
}

// Wait records one blocked cross-lane receive on a lane (from is the
// producing lane). Nil-safe.
func (c *RunCapture) Wait(lane, from int, value string, start time.Time, dur time.Duration) {
	if c == nil {
		return
	}
	c.lanes[lane] = append(c.lanes[lane], OpSpan{
		Kind: SpanRecvWait, Lane: int32(lane), Name: value,
		StartNs: c.offset(start), DurNs: int64(dur), Peer: int32(from),
	})
}

// Send records one channel handoff from a lane to a consumer lane (an
// instant event). Nil-safe.
func (c *RunCapture) Send(lane, to int, value string, at time.Time) {
	if c == nil {
		return
	}
	c.lanes[lane] = append(c.lanes[lane], OpSpan{
		Kind: SpanSend, Lane: int32(lane), Name: value,
		StartNs: c.offset(at), Peer: int32(to),
	})
}

// Commit flattens the capture into a RunTimeline and publishes it to the
// recorder's ring. complete is false for failed or cancelled runs. Must be
// called after every lane goroutine has exited (the executor calls it after
// its WaitGroup). Nil-safe.
func (c *RunCapture) Commit(wall time.Duration, complete bool) *RunTimeline {
	if c == nil {
		return nil
	}
	total := 0
	for _, ls := range c.lanes {
		total += len(ls)
	}
	r := &RunTimeline{
		Seq:      c.seq,
		Start:    c.start,
		WallNs:   int64(wall),
		Lanes:    len(c.lanes),
		Complete: complete,
		Spans:    make([]OpSpan, 0, total),
	}
	for _, ls := range c.lanes {
		r.Spans = append(r.Spans, ls...)
	}
	c.tl.publish(r)
	return r
}

// Timeline is the execution-layer flight recorder of one plan: it samples
// every Nth run into a small ring of RunTimelines. The unsampled path is a
// single atomic increment, and a plan with no Timeline attached pays one
// atomic pointer load per run — the hot loop stays zero-allocation (pinned
// by test). Sampled runs do allocate (their span slices); that is the 1-in-N
// cost the sampling rate bounds.
type Timeline struct {
	every int64
	runs  atomic.Int64

	mu   sync.Mutex
	ring []*RunTimeline
	next int
	last *RunTimeline
}

// NewTimeline creates a recorder sampling one run in `every` (minimum 1)
// and retaining the most recent `ring` sampled runs (minimum 1).
func NewTimeline(every, ring int) *Timeline {
	if every < 1 {
		every = 1
	}
	if ring < 1 {
		ring = 1
	}
	return &Timeline{every: int64(every), ring: make([]*RunTimeline, ring)}
}

// Every returns the sampling interval.
func (t *Timeline) Every() int {
	if t == nil {
		return 0
	}
	return int(t.every)
}

// StartRun begins recording if this run is sampled, returning nil otherwise
// (and on a nil receiver). lanes is the plan's lane count. The caller hands
// the returned capture to its lane goroutines and Commits it when the run
// ends.
func (t *Timeline) StartRun(lanes int) *RunCapture {
	if t == nil {
		return nil
	}
	n := t.runs.Add(1)
	if (n-1)%t.every != 0 {
		return nil
	}
	return &RunCapture{
		tl:    t,
		seq:   n,
		start: time.Now(),
		lanes: make([][]OpSpan, lanes),
	}
}

// Runs reports how many runs the recorder has seen (sampled or not).
func (t *Timeline) Runs() int64 {
	if t == nil {
		return 0
	}
	return t.runs.Load()
}

// publish stores a committed run in the ring.
func (t *Timeline) publish(r *RunTimeline) {
	t.mu.Lock()
	t.ring[t.next] = r
	t.next = (t.next + 1) % len(t.ring)
	t.last = r
	t.mu.Unlock()
}

// Last returns the most recently committed sampled run, nil before the
// first sample (and on a nil receiver). The returned timeline is immutable.
func (t *Timeline) Last() *RunTimeline {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

// Snapshot returns the retained sampled runs, newest first. Nil-safe.
func (t *Timeline) Snapshot() []*RunTimeline {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*RunTimeline, 0, len(t.ring))
	for i := 0; i < len(t.ring); i++ {
		// Walk backwards from the most recent write position.
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		if t.ring[idx] != nil {
			out = append(out, t.ring[idx])
		}
	}
	return out
}

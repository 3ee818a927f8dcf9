package serve

import (
	"context"
	"errors"
	"sync/atomic"

	ramiel "repro"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// ErrorCause labels what went wrong with a failed request, for the
// cause-split error counters, the trace spans, and error responses.
type ErrorCause int

const (
	// CauseNone means the request succeeded.
	CauseNone ErrorCause = iota
	// CauseValidation: the feeds failed validation (missing, unknown or
	// mis-shaped inputs) — a client error, not a model failure.
	CauseValidation
	// CauseCompile: building or compiling the model (or its batch variant)
	// failed.
	CauseCompile
	// CauseExecution: a kernel or lane failed during the run.
	CauseExecution
	// CauseDeadline: the request or batch deadline expired.
	CauseDeadline
	// CauseCanceled: the client went away (context canceled). Counted under
	// its own label but excluded from the Errors total, as before — a
	// canceled client is not a model failure.
	CauseCanceled
	// CauseShutdown: the request arrived while the server was draining.
	CauseShutdown
	// CausePanic: a panic was recovered on the request's path — in a
	// kernel (exec lane), the worker pool, or the batcher. The process
	// survives; the request fails with a cause-labeled 500.
	CausePanic
	// CauseMemory: the request was shed by memory-feasibility admission
	// (429) or its run hit the shared arena byte budget mid-flight (503).
	// Either way the server protected itself from allocating past its
	// memory budget.
	CauseMemory
	// CauseWatchdog: the stuck-run watchdog force-cancelled the run after
	// it exceeded the p99-derived execution limit — a pathological input
	// degraded one request instead of wedging a worker slot.
	CauseWatchdog
	// CauseBodyTooLarge: the HTTP request body exceeded the configured cap
	// (413) — rejected before JSON decoding allocated anything.
	CauseBodyTooLarge
	// The fleet tier's sheds (internal/fleet counts them per model; the
	// labels live here so the whole stack has one cause enum):
	// CauseInfeasible — predicted completion exceeds the request deadline;
	// CauseQueueFull — the model's pending window is at its bound;
	// CauseNoReplica — no healthy, ready replica to route to.
	CauseInfeasible
	CauseQueueFull
	CauseNoReplica
	// CauseReplyTooLarge: a remote replica's 200 reply ran past the front's
	// cap on that replica's replies (502). The same request would bring the
	// same reply from any replica, so it is not retried.
	CauseReplyTooLarge
	numCauses
)

// String returns the stable label used in JSON and metric labels.
func (c ErrorCause) String() string {
	switch c {
	case CauseNone:
		return ""
	case CauseValidation:
		return "validation"
	case CauseCompile:
		return "compile"
	case CauseExecution:
		return "execution"
	case CauseDeadline:
		return "deadline"
	case CauseCanceled:
		return "canceled"
	case CauseShutdown:
		return "shutdown"
	case CausePanic:
		return "panic"
	case CauseMemory:
		return "memory"
	case CauseWatchdog:
		return "watchdog"
	case CauseBodyTooLarge:
		return "body_too_large"
	case CauseInfeasible:
		return "infeasible"
	case CauseQueueFull:
		return "queue_full"
	case CauseNoReplica:
		return "no_replica"
	case CauseReplyTooLarge:
		return "reply_too_large"
	}
	return "unknown"
}

// causeOf classifies a serving error. Deadline/cancel are checked first:
// an expired batch surfaces as the bare context error even when the root
// run failed with it mid-kernel.
func causeOf(err error) ErrorCause {
	switch {
	case err == nil:
		return CauseNone
	// Panic outranks cancellation: a run that panicked and was then
	// aborted is a panic, not a cancel.
	case isPanic(err):
		return CausePanic
	// Watchdog kills surface as context cancellation underneath, so the
	// wrapper must be checked before the bare ctx errors.
	case errors.Is(err, ErrWatchdogKilled):
		return CauseWatchdog
	case errors.Is(err, context.Canceled):
		return CauseCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return CauseDeadline
	// Both memory verdicts — shed at admission, or denied by the arena
	// budget mid-run — carry the same "memory" label.
	case errors.Is(err, ErrMemoryPressure), errors.Is(err, tensor.ErrArenaBudget):
		return CauseMemory
	case errors.Is(err, ErrBodyTooLarge):
		return CauseBodyTooLarge
	case errors.Is(err, ramiel.ErrInvalidFeeds):
		return CauseValidation
	case errors.Is(err, ErrCompile):
		return CauseCompile
	case errors.Is(err, ErrShutdown), errors.Is(err, ErrBatcherClosed):
		return CauseShutdown
	default:
		return CauseExecution
	}
}

// ModelStats counts per-model serving activity. All counters are atomics
// and the stage histograms are lock-free, so the hot path never takes a
// lock; Snapshot gives a consistent-enough view for reporting.
type ModelStats struct {
	// Requests is every Infer call routed to the model.
	Requests atomic.Int64
	// Errors counts failed requests. Canceled clients are excluded (they
	// are not model failures) but appear under their own cause label.
	Errors atomic.Int64
	// errsByCause splits failures by ErrorCause.
	errsByCause [numCauses]atomic.Int64
	// Batched counts requests that were served inside a coalesced
	// micro-batch of size > 1 (i.e. through a hyperclustered plan).
	Batched atomic.Int64
	// Flushes counts micro-batch flushes; FlushedSamples their total size,
	// so FlushedSamples/Flushes is the mean realized batch size.
	Flushes        atomic.Int64
	FlushedSamples atomic.Int64
	// MaxBatchSeen is the largest coalesced batch executed.
	MaxBatchSeen atomic.Int64
	// QueueDepth is the current number of requests waiting in the
	// micro-batcher; PeakQueueDepth its high-water mark.
	QueueDepth     atomic.Int64
	PeakQueueDepth atomic.Int64
	// InFlight is the number of requests dispatched for the model and not
	// yet answered (queued, batching, or executing). Together with
	// QueueDepth this is the pressure signal the fleet tier's spillover
	// watermark reads, so it is exported rather than kept internal.
	InFlight atomic.Int64
	// FlushWindowNs is the micro-batch flush window most recently armed for
	// the model. Static batching pins it at Config.FlushTimeout; adaptive
	// batching moves it with load, and this gauge is how that movement is
	// observed.
	FlushWindowNs atomic.Int64
	// stages holds the per-stage latency histograms (batch assembly, queue
	// wait, execute, end-to-end) that replaced the old mean-only latency
	// accumulator: p50/p90/p99/max per stage instead of one average. Nil
	// when the server runs with telemetry disabled (Config.NoObs) — the
	// Record path is nil-safe.
	stages *obs.StageSet
}

// noteQueued bumps the batcher queue gauge and its high-water mark.
func (m *ModelStats) noteQueued() {
	d := m.QueueDepth.Add(1)
	for {
		old := m.PeakQueueDepth.Load()
		if d <= old || m.PeakQueueDepth.CompareAndSwap(old, d) {
			return
		}
	}
}

// noteBatch records one executed micro-batch of size n.
func (m *ModelStats) noteBatch(n int) {
	m.Flushes.Add(1)
	m.FlushedSamples.Add(int64(n))
	if n > 1 {
		m.Batched.Add(int64(n))
	}
	for {
		old := m.MaxBatchSeen.Load()
		if int64(n) <= old || m.MaxBatchSeen.CompareAndSwap(old, int64(n)) {
			return
		}
	}
}

// noteError records one failed request under its cause.
func (m *ModelStats) noteError(c ErrorCause) {
	if c == CauseNone {
		return
	}
	m.errsByCause[c].Add(1)
	if c != CauseCanceled {
		m.Errors.Add(1)
	}
}

// ModelStatsSnapshot is the JSON view of ModelStats.
type ModelStatsSnapshot struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// ErrorsByCause splits failures by cause label (validation, compile,
	// execution, deadline, canceled, shutdown); only non-zero causes appear.
	ErrorsByCause  map[string]int64 `json:"errors_by_cause,omitempty"`
	Batched        int64            `json:"batched"`
	Flushes        int64            `json:"flushes"`
	FlushedSamples int64            `json:"flushed_samples"`
	MaxBatchSeen   int64            `json:"max_batch_seen"`
	QueueDepth     int64            `json:"queue_depth"`
	PeakQueueDepth int64            `json:"peak_queue_depth"`
	InFlight       int64            `json:"in_flight"`
	FlushWindowNs  int64            `json:"flush_window_ns,omitempty"`
	// Stages carries the per-stage latency histograms (count, sum, max,
	// p50/p90/p99 in ns), keyed by stage label. Absent with telemetry off
	// or before the first request.
	Stages map[string]obs.HistogramSnapshot `json:"stages,omitempty"`
}

// Snapshot reads the counters.
func (m *ModelStats) Snapshot() ModelStatsSnapshot {
	snap := ModelStatsSnapshot{
		Requests:       m.Requests.Load(),
		Errors:         m.Errors.Load(),
		Batched:        m.Batched.Load(),
		Flushes:        m.Flushes.Load(),
		FlushedSamples: m.FlushedSamples.Load(),
		MaxBatchSeen:   m.MaxBatchSeen.Load(),
		QueueDepth:     m.QueueDepth.Load(),
		PeakQueueDepth: m.PeakQueueDepth.Load(),
		InFlight:       m.InFlight.Load(),
		FlushWindowNs:  m.FlushWindowNs.Load(),
		Stages:         m.stages.Snapshot(),
	}
	for c := CauseNone + 1; c < numCauses; c++ {
		if n := m.errsByCause[c].Load(); n > 0 {
			if snap.ErrorsByCause == nil {
				snap.ErrorsByCause = make(map[string]int64, int(numCauses))
			}
			snap.ErrorsByCause[c.String()] = n
		}
	}
	return snap
}

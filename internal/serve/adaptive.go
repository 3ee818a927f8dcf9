package serve

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// batchAdapter picks the micro-batcher's flush window per model from live
// measurements, continuous-batching style, replacing the static
// FlushTimeout policy when Config.AdaptiveBatch is set:
//
//   - The *budget* — the longest a lone request should ever wait for
//     companions — tracks the model's live execution time (half the p50
//     from the stage histograms): batching only pays while the wait it
//     adds stays small against the work it amortizes. With no samples yet
//     (a cold model) the budget falls back to the configured static
//     window.
//   - The *fill estimate* — how long until a full window of maxBatch
//     requests accumulates — comes from an EWMA of request inter-arrival
//     gaps. When arrivals are sparse (fill > budget: the companions are
//     not coming) the window collapses to the floor and a lone request
//     flushes almost immediately, instead of idling out the full static
//     timeout. When arrivals are dense the window is exactly the time the
//     window needs to fill, growing batches toward the best-throughput
//     hypercluster variant under load.
//
// All state is atomic; note and window are called on the submit path and
// allocate nothing.
type batchAdapter struct {
	exec      *obs.Histogram // the model's live exec-stage histogram
	minWindow time.Duration  // floor (minFlush)
	maxWindow time.Duration  // cap = the configured static window
	maxBatch  int

	lastNs atomic.Int64 // UnixNano of the previous arrival
	gapNs  atomic.Int64 // EWMA of inter-arrival gaps (1/8 gain)
}

func newBatchAdapter(exec *obs.Histogram, minWindow, maxWindow time.Duration, maxBatch int) *batchAdapter {
	return &batchAdapter{exec: exec, minWindow: minWindow, maxWindow: maxWindow, maxBatch: maxBatch}
}

// note feeds one arrival into the inter-arrival EWMA. Nil-safe.
func (a *batchAdapter) note(now time.Time) {
	if a == nil {
		return
	}
	n := now.UnixNano()
	last := a.lastNs.Swap(n)
	if last == 0 {
		return
	}
	gap := n - last
	if gap < 0 {
		gap = 0
	}
	// Clamp idle periods so the first arrival after a lull doesn't poison
	// the rate estimate for many requests.
	if gap > int64(time.Second) {
		gap = int64(time.Second)
	}
	old := a.gapNs.Load()
	if old == 0 {
		a.gapNs.Store(gap)
		return
	}
	// Racy read-modify-write is fine: this is a smoothed control signal,
	// and a lost update under contention only means one gap sample weighs
	// slightly differently.
	a.gapNs.Store(old - old/8 + gap/8)
}

// window returns the flush window to arm for a window currently holding
// `pending` requests. Nil receiver returns the static fallback of 0 (the
// caller uses its configured timeout).
func (a *batchAdapter) window(pending int) time.Duration {
	budget := a.maxWindow
	if p50 := time.Duration(a.exec.Quantile(0.50)); p50 > 0 {
		budget = clampDur(p50/2, a.minWindow, a.maxWindow)
	}
	gap := time.Duration(a.gapNs.Load())
	if gap <= 0 {
		// No arrival-rate estimate yet: wait the full budget, like the
		// static batcher would.
		return budget
	}
	remaining := a.maxBatch - pending
	if remaining < 1 {
		return a.minWindow
	}
	fill := gap * time.Duration(remaining)
	if fill > budget {
		// Arrivals are too sparse to fill the window within budget —
		// flush (nearly) immediately rather than waiting for companions
		// that are not coming.
		return a.minWindow
	}
	return clampDur(fill, a.minWindow, budget)
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

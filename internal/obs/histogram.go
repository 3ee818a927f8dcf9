// Package obs is the observability core of the serving stack: lock-free
// log-bucketed latency histograms (per model × stage), a lock-striped trace
// ring of recent request spans, and the per-op execution-time totals the
// executor accumulates per plan. Everything here is designed for an
// always-on hot path: recording a sample is a handful of atomic adds with
// zero allocation, and all aggregation cost (quantiles, sorting, JSON
// shapes) is paid by the reader at snapshot time.
//
// The package depends only on the standard library so any layer — exec,
// serve, the daemons, tools — can record into or render from it.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed size of a Histogram's bucket array. Values 0-7 ns
// get exact buckets; above that every power of two is split into 4
// sub-buckets (quarter-octave resolution), so any bucket's relative width
// is at most 25% and the array covers the full int64 nanosecond range
// (buckets 8..251 span 8ns to ~292 years).
const NumBuckets = 252

// bucketOf maps a non-negative nanosecond value to its bucket index. The
// mapping is monotone: larger values never land in lower buckets.
func bucketOf(v int64) int {
	u := uint64(v)
	if u < 8 {
		return int(u)
	}
	b := bits.Len64(u)               // 4..64: position of the leading one
	sub := int((u >> uint(b-3)) & 3) // the two bits after the leading one
	return 8 + (b-4)*4 + sub
}

// bucketBounds returns the half-open value range [lo, hi) of a bucket. The
// topmost buckets' bounds exceed int64 (bucket 247, the last one reachable
// by a non-negative int64, spans up to 2^63); those clamp to MaxInt64.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < 8 {
		return int64(idx), int64(idx) + 1
	}
	b := 4 + (idx-8)/4
	sub := (idx - 8) % 4
	const maxI64 = int64(^uint64(0) >> 1)
	shiftClamp := func(base uint64, shift uint) int64 {
		if shift > 63 || base<<shift > uint64(maxI64) || base<<shift>>shift != base {
			return maxI64
		}
		return int64(base << shift)
	}
	lo = shiftClamp(uint64(4+sub), uint(b-3))
	hi = shiftClamp(uint64(5+sub), uint(b-3))
	return lo, hi
}

// Histogram is a streaming log-bucketed histogram of nanosecond durations.
// Record is lock-free and allocation-free (fixed bucket array of atomics);
// Snapshot derives count/sum/max and interpolated p50/p90/p99. The zero
// value is ready to use, and a nil *Histogram ignores records — callers can
// keep telemetry optional without branching.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Record adds one duration sample. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Bucket is one non-empty histogram bucket in a snapshot: the bucket's
// exclusive upper bound in nanoseconds and its (non-cumulative) count.
type Bucket struct {
	UpperNs int64
	Count   int64
}

// HistogramSnapshot is a consistent-enough point-in-time view: counters are
// read individually, so a snapshot racing active writers may be off by the
// in-flight samples, which is fine for monitoring. Quantiles are linearly
// interpolated inside their bucket (≤25% relative bucket width), clamped to
// the observed max.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
	MaxNs int64 `json:"max_ns"`
	P50Ns int64 `json:"p50_ns"`
	P90Ns int64 `json:"p90_ns"`
	P99Ns int64 `json:"p99_ns"`
	// Buckets lists the non-empty buckets for renderers that need the full
	// distribution (the Prometheus text exposition); omitted from JSON,
	// where the interpolated quantiles are the consumable view.
	Buckets []Bucket `json:"-"`
}

// Mean returns the mean sample in nanoseconds, 0 when empty.
func (s HistogramSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumNs / s.Count
}

// Snapshot reads the histogram. Nil-safe (returns a zero snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var counts [NumBuckets]int64
	total := int64(0)
	nonEmpty := 0
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
		if c > 0 {
			nonEmpty++
		}
	}
	snap := HistogramSnapshot{
		Count: h.count.Load(),
		SumNs: h.sum.Load(),
		MaxNs: h.max.Load(),
	}
	if total == 0 {
		return snap
	}
	snap.P50Ns = quantile(counts[:], total, 0.50, snap.MaxNs)
	snap.P90Ns = quantile(counts[:], total, 0.90, snap.MaxNs)
	snap.P99Ns = quantile(counts[:], total, 0.99, snap.MaxNs)
	snap.Buckets = make([]Bucket, 0, nonEmpty)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		_, hi := bucketBounds(i)
		snap.Buckets = append(snap.Buckets, Bucket{UpperNs: hi, Count: c})
	}
	return snap
}

// Quantile returns the interpolated q-quantile (0 < q < 1) in nanoseconds
// from the live buckets, without allocating — the hook the fleet admission
// controller and the adaptive batcher poll on their decision paths. The
// buckets are read racily against concurrent writers (each Load is atomic,
// the scan is not), which can be off by the in-flight samples; for control
// decisions over thousands of samples that error is noise. Returns 0 when
// the histogram is nil or empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	maxNs := h.max.Load()
	rank := int64(q*float64(total-1)) + 1
	if rank > total {
		rank = total
	}
	cum := int64(0)
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketBounds(i)
			frac := float64(rank-cum) / float64(c)
			v := lo + int64(frac*float64(hi-lo))
			if maxNs > 0 && v > maxNs {
				v = maxNs
			}
			return v
		}
		cum += c
	}
	// Writers raced the scan (bucket adds not yet visible): the q-quantile
	// is at or beyond everything we saw.
	return maxNs
}

// quantile locates the bucket holding the q-th sample of the copied counts
// and interpolates linearly within it, clamping to the observed max so a
// lone huge sample doesn't report its bucket's (larger) upper bound.
func quantile(counts []int64, total int64, q float64, maxNs int64) int64 {
	rank := int64(q*float64(total-1)) + 1 // 1-based target sample
	if rank > total {
		rank = total
	}
	cum := int64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketBounds(i)
			frac := float64(rank-cum) / float64(c)
			v := lo + int64(frac*float64(hi-lo))
			if maxNs > 0 && v > maxNs {
				v = maxNs
			}
			return v
		}
		cum += c
	}
	return maxNs
}

// Stage names one segment of a request's lifecycle. The stage boundaries
// are the serving layer's: assembly is the micro-batcher window wait (from
// submit to flush), queue is the worker-pool wait (from enqueue to a worker
// picking the run up), exec is the session run itself, and e2e is the whole
// request as the client experiences it.
type Stage int

const (
	// StageAssembly is time spent waiting in the micro-batcher window for
	// companion requests (batched path only).
	StageAssembly Stage = iota
	// StageQueue is time spent queued for a worker-pool slot.
	StageQueue
	// StageExec is the plan execution itself (session run on a worker).
	StageExec
	// StageE2E is the full request latency, Infer entry to exit.
	StageE2E
	// NumStages bounds the Stage enum; StageSet sizes its array with it.
	NumStages
)

// String returns the stable label used in JSON keys and metric labels.
func (s Stage) String() string {
	switch s {
	case StageAssembly:
		return "batch_assembly"
	case StageQueue:
		return "queue_wait"
	case StageExec:
		return "execute"
	case StageE2E:
		return "e2e"
	}
	return "unknown"
}

// Stages lists every stage in lifecycle order, for renderers.
func Stages() []Stage {
	return []Stage{StageAssembly, StageQueue, StageExec, StageE2E}
}

// StageSet is one histogram per lifecycle stage — the per-model unit the
// serving layer keeps. The zero value is ready to use.
type StageSet struct {
	h [NumStages]Histogram
}

// Record adds a sample to one stage's histogram.
func (s *StageSet) Record(st Stage, d time.Duration) {
	s.h[st].Record(d)
}

// Stage returns one stage's histogram.
func (s *StageSet) Stage(st Stage) *Histogram {
	return &s.h[st]
}

// Snapshot reads every stage that has samples, keyed by stage label.
// An empty set returns nil, so JSON omits the block cleanly.
func (s *StageSet) Snapshot() map[string]HistogramSnapshot {
	var out map[string]HistogramSnapshot
	for _, st := range Stages() {
		snap := s.h[st].Snapshot()
		if snap.Count == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]HistogramSnapshot, NumStages)
		}
		out[st.String()] = snap
	}
	return out
}

package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestBucketOfMonotoneAndInBounds(t *testing.T) {
	values := []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 1e6, 1e9, 1e12, math.MaxInt64}
	prev := -1
	for _, v := range values {
		idx := bucketOf(v)
		if idx < 0 || idx >= NumBuckets {
			t.Fatalf("bucketOf(%d) = %d, out of [0, %d)", v, idx, NumBuckets)
		}
		if idx < prev {
			t.Fatalf("bucketOf not monotone: bucketOf(%d) = %d < previous %d", v, idx, prev)
		}
		prev = idx
		lo, hi := bucketBounds(idx)
		// The top bucket's bound clamps to MaxInt64 and is inclusive there.
		if v < lo || (v >= hi && hi != math.MaxInt64) {
			t.Fatalf("value %d landed in bucket %d = [%d, %d)", v, idx, lo, hi)
		}
	}
}

func TestBucketBoundsTileTheRange(t *testing.T) {
	// Buckets must tile [0, ...) with no gaps or overlaps and at most 25%
	// relative width.
	prevHi := int64(0)
	for i := 0; i < NumBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevHi)
		}
		if hi == math.MaxInt64 {
			// Top of the int64 range reached (bucket 247 for int64 inputs);
			// the remaining buckets are unreachable and clamp.
			if i < 240 {
				t.Fatalf("bucket %d clamped too early", i)
			}
			break
		}
		if hi <= lo {
			t.Fatalf("bucket %d = [%d, %d) is empty or inverted", i, lo, hi)
		}
		if lo >= 8 && float64(hi-lo)/float64(lo) > 0.25+1e-9 {
			t.Fatalf("bucket %d = [%d, %d): relative width %.3f > 25%%",
				i, lo, hi, float64(hi-lo)/float64(lo))
		}
		prevHi = hi
	}
}

func TestHistogramSnapshotQuantiles(t *testing.T) {
	var h Histogram
	// 1..1000 µs uniformly: p50 ≈ 500µs, p90 ≈ 900µs, p99 ≈ 990µs; the
	// bucket scheme guarantees ≤25% relative error.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	snap := h.Snapshot()
	if snap.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", snap.Count)
	}
	if want := int64(1000 * 1001 / 2 * int64(time.Microsecond)); snap.SumNs != want {
		t.Fatalf("SumNs = %d, want %d", snap.SumNs, want)
	}
	if want := int64(1000 * time.Microsecond); snap.MaxNs != want {
		t.Fatalf("MaxNs = %d, want %d", snap.MaxNs, want)
	}
	check := func(name string, got, want int64) {
		t.Helper()
		rel := math.Abs(float64(got-want)) / float64(want)
		if rel > 0.25 {
			t.Errorf("%s = %v, want ≈%v (rel err %.2f > 0.25)", name, got, want, rel)
		}
	}
	check("P50", snap.P50Ns, int64(500*time.Microsecond))
	check("P90", snap.P90Ns, int64(900*time.Microsecond))
	check("P99", snap.P99Ns, int64(990*time.Microsecond))
	if snap.P50Ns > snap.P90Ns || snap.P90Ns > snap.P99Ns || snap.P99Ns > snap.MaxNs {
		t.Errorf("quantiles not ordered: p50 %d, p90 %d, p99 %d, max %d",
			snap.P50Ns, snap.P90Ns, snap.P99Ns, snap.MaxNs)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if snap := h.Snapshot(); snap.Count != 0 || snap.P99Ns != 0 {
		t.Errorf("empty snapshot = %+v, want zeros", snap)
	}
	h.Record(-time.Second) // clamps to 0
	h.Record(0)
	snap := h.Snapshot()
	if snap.Count != 2 || snap.SumNs != 0 || snap.MaxNs != 0 {
		t.Errorf("after clamped records: %+v", snap)
	}
	var nilH *Histogram
	nilH.Record(time.Second) // must not panic
	if snap := nilH.Snapshot(); snap.Count != 0 {
		t.Errorf("nil snapshot = %+v", snap)
	}
}

func TestHistogramBucketsCumulate(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	snap := h.Snapshot()
	var total int64
	lastUpper := int64(-1)
	for _, b := range snap.Buckets {
		if b.Count <= 0 {
			t.Fatalf("snapshot contains empty bucket %+v", b)
		}
		if b.UpperNs <= lastUpper {
			t.Fatalf("buckets not ascending: %d after %d", b.UpperNs, lastUpper)
		}
		lastUpper = b.UpperNs
		total += b.Count
	}
	if total != snap.Count {
		t.Fatalf("bucket counts sum to %d, Count = %d", total, snap.Count)
	}
}

// TestStageSetSnapshotOmitsEmptyStages: an empty set snapshots to nil, so
// JSON omits the block, and a snapshot keys only the stages with samples.
func TestStageSetSnapshotOmitsEmptyStages(t *testing.T) {
	set := &StageSet{}
	if set.Snapshot() != nil {
		t.Error("empty StageSet snapshot should be nil")
	}
	set.Record(StageQueue, time.Millisecond)
	snap := set.Snapshot()
	if len(snap) != 1 || snap[StageQueue.String()].Count != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
}

// TestHistogramConcurrentRecord hammers Record and Snapshot from many
// goroutines; run under -race this is the data-race proof, and the final
// counts must balance exactly.
func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent reader exercising snapshot-while-writing.
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Snapshot()
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Record(time.Duration(g*perG+i) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snap := h.Snapshot()
	if want := int64(goroutines * perG); snap.Count != want {
		t.Fatalf("Count = %d, want %d", snap.Count, want)
	}
	var bucketTotal int64
	for _, b := range snap.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != snap.Count {
		t.Fatalf("buckets sum to %d, Count = %d", bucketTotal, snap.Count)
	}
	if want := int64(goroutines*perG - 1); snap.MaxNs != want {
		t.Fatalf("MaxNs = %d, want %d", snap.MaxNs, want)
	}
}

// TestRecordAllocates pins the record path to zero allocations — the
// contract that lets telemetry stay always-on.
func TestRecordAllocates(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Record(123 * time.Microsecond) }); n != 0 {
		t.Errorf("Histogram.Record allocates %.1f per op, want 0", n)
	}
	set := &StageSet{}
	if n := testing.AllocsPerRun(1000, func() { set.Record(StageE2E, time.Millisecond) }); n != 0 {
		t.Errorf("StageSet.Record allocates %.1f per op, want 0", n)
	}
}

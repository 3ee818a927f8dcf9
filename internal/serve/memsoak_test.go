package serve

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
)

// classifyMem buckets a soak completion for the load report.
func classifyMem(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrMemoryPressure):
		return "shed_memory"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	default:
		return "error"
	}
}

// soakServer builds a governed server whose admission forecast allows at
// most `slots` concurrent requests: budget = slots × estimate. Open-loop
// overload then has to shed with cause "memory" rather than queue without
// bound — the zero-OOM property the memory governor exists for.
func soakServer(tb testing.TB, slots int) *Server {
	tb.Helper()
	const est = 64 << 10
	s := New(Config{Workers: 2, MaxBatch: 4, MemBudgetBytes: int64(slots) * est, Deadline: 5 * time.Second})
	s.RegisterGraph("tiny", tinyModel())
	s.MarkReady()
	s.gov.setEstimate("tiny", est)
	return s
}

// runMemSoak drives the open-loop generator and samples heap growth while
// it runs. Returns the load report and the peak sampled HeapAlloc delta.
func runMemSoak(s *Server, rate float64, duration time.Duration) (*bench.LoadReport, uint64) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var peak atomic.Uint64
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > base {
					d := m.HeapAlloc - base
					for p := peak.Load(); d > p && !peak.CompareAndSwap(p, d); p = peak.Load() {
					}
				}
			}
		}
	}()
	gen := &bench.LoadGen{
		Rate:     rate,
		Duration: duration,
		Timeout:  time.Second,
		Do: func(ctx context.Context, i int) error {
			_, _, err := s.Infer(ctx, "tiny", tinyFeeds(float32(i)), false)
			return err
		},
		Classify: classifyMem,
	}
	report := gen.Run(context.Background())
	close(stop)
	return report, peak.Load()
}

// TestMemorySoakShedsInsteadOfQueueing: under sustained overload a
// governed server answers every arrival — ok or an explicit memory shed —
// and its books balance afterwards (no reservation leak, arena at zero).
func TestMemorySoakShedsInsteadOfQueueing(t *testing.T) {
	s := soakServer(t, 3)
	defer s.Close(context.Background())
	report, _ := runMemSoak(s, 1500, 200*time.Millisecond)

	if report.Completed() != report.Offered {
		t.Fatalf("completed %d of %d offered — lost arrivals", report.Completed(), report.Offered)
	}
	if n := report.Class("error").Count; n != 0 {
		t.Fatalf("%d requests failed outside the shed/timeout taxonomy", n)
	}
	if report.Class("ok").Count == 0 {
		t.Error("soak completed zero requests")
	}
	if report.Class("shed_memory").Count == 0 {
		t.Error("overload at 3 admission slots produced zero memory sheds")
	}
	snap := s.MemoryStats()
	if snap.ReservedBytes != 0 {
		t.Errorf("ReservedBytes = %d after drain, want 0 (admission reservation leak)", snap.ReservedBytes)
	}
	if snap.Sheds != report.Class("shed_memory").Count {
		t.Errorf("governor counted %d sheds, clients saw %d", snap.Sheds, report.Class("shed_memory").Count)
	}
	if arena := s.ArenaStats(); arena.InUseBytes != 0 {
		t.Errorf("arena InUseBytes = %d after soak, want 0", arena.InUseBytes)
	}
}

// BenchmarkMemorySoak is the CI memory-soak: open-loop overload against a
// deliberately small budget. The numbers that matter are shed_memory > 0
// (admission doing its job), errors == 0, and a bounded heap_peak_mb —
// the "never OOMs" story in metrics.
func BenchmarkMemorySoak(b *testing.B) {
	const (
		rate     = 2000
		duration = 300 * time.Millisecond
	)
	for iter := 0; iter < b.N; iter++ {
		s := soakServer(b, 3)
		report, peak := runMemSoak(s, rate, duration)
		if err := s.Close(context.Background()); err != nil {
			b.Fatal(err)
		}
		if n := report.Class("error").Count; n != 0 {
			b.Fatalf("%d unexpected errors during soak", n)
		}
		if iter == b.N-1 {
			ok := report.Class("ok")
			b.ReportMetric(float64(report.Offered), "offered")
			b.ReportMetric(float64(ok.Count), "ok")
			b.ReportMetric(float64(ok.Latency.Snapshot().P99Ns)/1e6, "p99_ok_ms")
			b.ReportMetric(float64(report.Class("shed_memory").Count), "shed_memory")
			b.ReportMetric(float64(report.Class("timeout").Count), "timeout")
			b.ReportMetric(float64(peak)/(1<<20), "heap_peak_mb")
		}
	}
}

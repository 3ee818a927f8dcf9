package serve

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	ramiel "repro"
)

// heavyServer builds a single-worker server around a model big enough that
// a request can be cancelled while its lanes are busy.
func heavyServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{Workers: 1, MaxBatch: 1})
	t.Cleanup(func() { s.Close(context.Background()) })
	if err := s.RegisterZoo(ramiel.ModelConfig{ImageSize: 64}, "squeezenet"); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestInferCancelAbortsInFlightRun is the serving acceptance test: a
// request cancelled via its context (the HTTP layer passes r.Context()
// straight here) aborts the run it is executing — the run returns
// context.Canceled before completing and the worker slot frees within one
// kernel's duration rather than computing the abandoned request to
// completion — and the pooled session it used remains serviceable.
func TestInferCancelAbortsInFlightRun(t *testing.T) {
	s := heavyServer(t)
	feeds, err := s.RandomFeeds("squeezenet", 1)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := false
	for attempt := 0; attempt < 25 && !cancelled; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		// Cancel once the worker has picked the run up, so the cancel
		// lands mid-flight however long a run takes.
		go func() {
			for s.pool.InFlight() == 0 && ctx.Err() == nil {
				runtime.Gosched()
			}
			cancel()
		}()
		_, _, err := s.Infer(ctx, "squeezenet", feeds, true)
		cancel()
		switch {
		case err == nil:
			// Run beat the cancel; try again.
		case errors.Is(err, context.Canceled):
			cancelled = true
		default:
			t.Fatalf("cancelled request failed with non-context error: %v", err)
		}
	}
	if !cancelled {
		t.Fatal("never observed a cancelled in-flight request in 25 attempts")
	}

	// The cancelled run must actually unwind, not keep computing in the
	// background: with one worker, in-flight drains well before a full
	// model run would have finished.
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.InFlight() > 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if n := s.pool.InFlight(); n > 0 {
		t.Fatalf("worker still executing %d runs after cancellation", n)
	}

	// The session the aborted run borrowed is back in the pool and fully
	// usable: the next request on the same single worker succeeds.
	if _, _, err := s.Infer(context.Background(), "squeezenet", feeds, true); err != nil {
		t.Fatalf("request after cancelled run: %v", err)
	}
	// Aborted runs must not ratchet the arena's in-use gauge: with no
	// request in flight, everything handed out was either recycled,
	// escaped to a client, or abandoned-and-reconciled.
	if st := s.ArenaStats(); st.InUseBytes != 0 {
		t.Errorf("arena in_use_bytes = %d with no requests in flight, want 0", st.InUseBytes)
	}
	// Cancellations are client behavior, not model failures.
	if errs := s.modelStats("squeezenet").Errors.Load(); errs != 0 {
		t.Errorf("cancelled requests counted as %d model errors", errs)
	}
}

// TestInferDeadlineAbortsRun: a per-request timeout (the HTTP layer's
// timeout_ms) aborts the run the same way, surfacing DeadlineExceeded.
func TestInferDeadlineAbortsRun(t *testing.T) {
	s := heavyServer(t)
	feeds, err := s.RandomFeeds("squeezenet", 1)
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 25; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
		_, _, err := s.Infer(ctx, "squeezenet", feeds, true)
		cancel()
		if err == nil {
			continue // run beat the deadline
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("timed-out request returned %v, want DeadlineExceeded", err)
		}
		return
	}
	t.Fatal("never observed a deadline-aborted request in 25 attempts")
}

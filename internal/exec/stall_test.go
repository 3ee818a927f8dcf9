package exec

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestCancelledRunCarriesStallDiagnostic: a mid-run cancellation surfaces
// as a StallError naming the lane/op position where the run unwound, while
// errors.Is(err, context.Canceled) keeps matching for the cause taxonomy.
func TestCancelledRunCarriesStallDiagnostic(t *testing.T) {
	plan, feeds := heavyChain(t, 120, 256)
	for attempt := 0; attempt < 25; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(500 * time.Microsecond)
			cancel()
		}()
		_, err := plan.Execute(ctx, feeds, nil)
		cancel()
		if err == nil {
			continue // run beat the cancel; try again
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want a context.Canceled chain", err)
		}
		var se *StallError
		if !errors.As(err, &se) {
			// The cancel can land in the window after every op finished but
			// before the final commit — no lane is stuck then. Retry.
			continue
		}
		if len(se.Stuck) == 0 {
			t.Fatal("StallError with an empty stuck list")
		}
		s := se.Stuck[0]
		if s.Op == "" || s.Node == "" || s.Total == 0 || s.Done >= s.Total {
			t.Errorf("implausible stuck position: %+v", s)
		}
		if msg := err.Error(); !strings.Contains(msg, "stalled:") || !strings.Contains(msg, s.Node) {
			t.Errorf("error text %q does not carry the stall position", msg)
		}
		return
	}
	t.Fatal("never observed a mid-run cancellation with a stall position in 25 attempts")
}

// TestDeadlineRunCarriesStallDiagnostic: same diagnostic on deadline
// expiry, with DeadlineExceeded preserved through the wrap.
func TestDeadlineRunCarriesStallDiagnostic(t *testing.T) {
	plan, feeds := heavyChain(t, 120, 256)
	for attempt := 0; attempt < 25; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
		_, err := plan.Execute(ctx, feeds, nil)
		cancel()
		if err == nil {
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("expired run returned %v, want a DeadlineExceeded chain", err)
		}
		var se *StallError
		if !errors.As(err, &se) {
			continue
		}
		if len(se.Stuck) == 0 {
			t.Fatal("StallError with an empty stuck list")
		}
		return
	}
	t.Fatal("never observed a mid-run deadline expiry with a stall position in 25 attempts")
}

// TestKernelErrorCarriesNoStallWrap: real kernel failures are not
// cancellation-class and must not be dressed up as stalls.
func TestKernelErrorCarriesNoStallWrap(t *testing.T) {
	g, feeds := smallGraph()
	plan := twoLanePlan(t, g)
	if _, err := plan.Execute(context.Background(), feeds, nil); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
}

package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// heavyChain builds a graph of n chained dim×dim MatMuls — long enough to
// cancel reliably mid-run — split into two lanes so one lane spends the
// run blocked on a cross-lane receive (the other cancellation observation
// point besides the between-ops poll).
func heavyChain(t *testing.T, n, dim int) (*Plan, Env) {
	t.Helper()
	g := graph.New("chain")
	g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{dim, dim}}}
	r := tensor.NewRNG(1)
	g.Initializers["w"] = r.RandTensor(dim, dim)
	prev := "x"
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("v%d", i)
		g.AddNode(fmt.Sprintf("m%d", i), "MatMul", []string{prev, "w"}, []string{out}, nil)
		prev = out
	}
	g.Outputs = []graph.ValueInfo{{Name: prev}}
	lane0 := g.Nodes[:len(g.Nodes)-1]
	lane1 := g.Nodes[len(g.Nodes)-1:]
	plan, err := NewPlan(g, [][]*graph.Node{lane0, lane1})
	if err != nil {
		t.Fatal(err)
	}
	return plan, Env{"x": r.RandTensor(dim, dim)}
}

func TestExecuteCancelledBeforeStart(t *testing.T) {
	g, feeds := smallGraph()
	plan := twoLanePlan(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.Execute(ctx, feeds, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("Execute on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := RunSequentialCtx(ctx, g, feeds); !errors.Is(err, context.Canceled) {
		t.Errorf("RunSequentialCtx on cancelled ctx did not return Canceled")
	}
	if _, err := MeasureCostsCtx(ctx, g, feeds, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("MeasureCostsCtx on cancelled ctx did not return Canceled")
	}
}

// TestExecuteCancelMidRun cancels a running plan and asserts the
// cooperative unwind: the run returns context.Canceled well before its
// natural completion, every lane goroutine exits, and the arena it ran
// with is consistent and immediately reusable.
func TestExecuteCancelMidRun(t *testing.T) {
	plan, feeds := heavyChain(t, 120, 256)
	want, err := RunSequential(plan.Graph, feeds)
	if err != nil {
		t.Fatal(err)
	}
	ar := tensor.NewArena()
	before := runtime.NumGoroutine()

	cancelled := false
	for attempt := 0; attempt < 25 && !cancelled; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(500 * time.Microsecond)
			cancel()
		}()
		_, err := plan.Execute(ctx, feeds, ar)
		cancel()
		switch {
		case err == nil:
			// The run beat the cancel; try again.
		case errors.Is(err, context.Canceled):
			cancelled = true
		default:
			t.Fatalf("cancelled run failed with non-context error: %v", err)
		}
	}
	if !cancelled {
		t.Fatal("never observed a mid-run cancellation in 25 attempts")
	}

	// No leaked lane goroutines: Execute waits for its lanes, so the count
	// returns to baseline (allow slack for runtime helpers).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines grew from %d to %d after cancelled runs", before, n)
	}

	// The aborted run abandoned its in-flight tensors to the GC; the
	// in-use gauge must not ratchet up with them.
	if in := ar.Stats().Snapshot().InUseBytes; in != 0 {
		t.Errorf("InUseBytes = %d after cancelled runs, want 0 (abandoned buffers not reconciled)", in)
	}

	// The arena a cancelled run used is reusable: a fresh uncancelled run
	// on it still produces the reference output.
	got, err := plan.Execute(context.Background(), feeds, ar)
	if err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
	out := plan.Graph.Outputs[0].Name
	if !got[out].AllClose(want[out], 1e-3, 1e-4) {
		t.Error("post-cancellation arena run diverged from sequential reference")
	}
	// A clean arena run balances its own books too (outputs escape,
	// intermediates are Put).
	if in := ar.Stats().Snapshot().InUseBytes; in != 0 {
		t.Errorf("InUseBytes = %d after clean run, want 0", in)
	}
}

// TestExecuteDeadlineExpiresMidRun: deadline expiry surfaces as
// context.DeadlineExceeded through the same cooperative unwind.
func TestExecuteDeadlineExpiresMidRun(t *testing.T) {
	plan, feeds := heavyChain(t, 120, 256)
	for attempt := 0; attempt < 25; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
		_, err := plan.Execute(ctx, feeds, nil)
		cancel()
		if err == nil {
			continue // run beat the deadline; try again
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("expired run returned %v, want DeadlineExceeded", err)
		}
		return
	}
	t.Fatal("never observed a mid-run deadline expiry in 25 attempts")
}

// TestExecuteKernelErrorOutranksCancel: when a lane dies for a real reason,
// that error must win over a racing cancellation so monitoring sees the
// root cause.
func TestExecuteKernelErrorOutranksCancel(t *testing.T) {
	g := graph.New("bad")
	g.Inputs = []graph.ValueInfo{{Name: "x"}}
	g.AddNode("z", "NoSuchOp", []string{"x"}, []string{"y"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "y"}}
	plan, err := NewPlan(g, [][]*graph.Node{{g.Nodes[0]}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, execErr := plan.Execute(ctx, Env{"x": tensor.Zeros(1)}, nil)
	if execErr == nil || errors.Is(execErr, context.Canceled) {
		t.Fatalf("kernel failure reported as %v", execErr)
	}
}

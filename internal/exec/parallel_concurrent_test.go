package exec

import (
	"context"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestPlanRunConcurrent exercises the serving invariant: one compiled Plan
// must serve many simultaneous Run calls (run with -race). Every call gets
// its own channels and environments; only the read-only topology is shared.
func TestPlanRunConcurrent(t *testing.T) {
	g, feeds := smallGraph()
	ref, err := RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	// Two lanes with a cross-lane dependence each way: Neg runs alone, its
	// output feeds lane 0's Add.
	var lane0, lane1 []*graph.Node
	for _, n := range g.Nodes {
		if n.Name == "n" {
			lane1 = append(lane1, n)
		} else {
			lane0 = append(lane0, n)
		}
	}
	plan, err := NewPlan(g, [][]*graph.Node{lane0, lane1})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, iters = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				out, err := plan.Execute(context.Background(), feeds, nil)
				if err != nil {
					errs <- err
					return
				}
				if !out["out"].Equal(ref["out"]) {
					t.Errorf("concurrent run diverged from sequential reference")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPlanRunProfiledConcurrent runs a one-lane plan from many goroutines:
// the runs share the per-plan topology and op counters.
func TestPlanRunProfiledConcurrent(t *testing.T) {
	g, feeds := smallGraph()
	plan, err := NewPlan(g, [][]*graph.Node{g.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := plan.Execute(context.Background(), feeds, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

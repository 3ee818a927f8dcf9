package exec

import (
	"context"
	"sync"
	"testing"

	"repro/internal/graph"
)

func TestPlanOpTotals(t *testing.T) {
	g, feeds := smallGraph()
	ns := g.Nodes
	plan, err := NewPlan(g, [][]*graph.Node{{ns[0], ns[1], ns[3]}, {ns[2]}})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.OpTotals(); got != nil {
		t.Fatalf("OpTotals before any run = %v, want nil", got)
	}
	const runs = 3
	for i := 0; i < runs; i++ {
		if _, err := plan.Execute(context.Background(), feeds, nil); err != nil {
			t.Fatal(err)
		}
	}
	totals := plan.OpTotals()
	byOp := map[string]int64{}
	var sum int64
	for _, tt := range totals {
		byOp[tt.Op] = tt.Count
		if tt.TotalNs <= 0 {
			t.Errorf("op %s has TotalNs %d, want > 0", tt.Op, tt.TotalNs)
		}
		sum += tt.TotalNs
	}
	// smallGraph has one node each of Relu, Sigmoid, Neg, Add.
	for _, op := range []string{"Relu", "Sigmoid", "Neg", "Add"} {
		if byOp[op] != runs {
			t.Errorf("op %s count = %d, want %d", op, byOp[op], runs)
		}
	}
	// Sorted by cumulative time descending.
	for i := 1; i < len(totals); i++ {
		if totals[i].TotalNs > totals[i-1].TotalNs {
			t.Errorf("totals not sorted: %d after %d", totals[i].TotalNs, totals[i-1].TotalNs)
		}
	}
	if sum <= 0 {
		t.Error("no time accumulated")
	}
}

// TestPlanOpTotalsConcurrent runs the shared plan from many goroutines —
// under -race this proves the per-op counters respect the immutable-Plan
// concurrency contract.
func TestPlanOpTotalsConcurrent(t *testing.T) {
	g, feeds := smallGraph()
	ns := g.Nodes
	plan, err := NewPlan(g, [][]*graph.Node{{ns[0], ns[1], ns[3]}, {ns[2]}})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 20
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				if _, err := plan.Execute(context.Background(), feeds, nil); err != nil {
					t.Error(err)
					return
				}
				_ = plan.OpTotals() // concurrent reader
			}
		}()
	}
	wg.Wait()
	var count int64
	for _, tt := range plan.OpTotals() {
		count += tt.Count
	}
	// 4 nodes per run × goroutines × perG runs.
	if want := int64(4 * goroutines * perG); count != want {
		t.Errorf("total invocations = %d, want %d", count, want)
	}
}

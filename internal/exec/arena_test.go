package exec

import (
	"context"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// twoLanePlan splits smallGraph so the Neg node runs in its own lane,
// giving the plan a cross-lane tensor dependence each way.
func twoLanePlan(t *testing.T, g *graph.Graph) *Plan {
	t.Helper()
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
	return plan
}

func TestRunArenaMatchesSequential(t *testing.T) {
	g, feeds := smallGraph()
	ref, err := RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	plan := twoLanePlan(t, g)
	ar := tensor.NewArena()
	for i := 0; i < 5; i++ {
		out, err := plan.Execute(context.Background(), feeds, ar)
		if err != nil {
			t.Fatal(err)
		}
		if !out["out"].Equal(ref["out"]) {
			t.Fatalf("run %d: arena output diverged from sequential reference", i)
		}
	}
	st := ar.Stats().Snapshot()
	if st.Gets == 0 {
		t.Fatal("kernels did not allocate through the arena")
	}
	if st.Puts == 0 {
		t.Fatal("no intermediate was released back to the arena")
	}
	// vr, vs, vn are intermediates (3 per run); "out" escapes. Exactly the
	// intermediates must come back.
	if want := int64(5 * 3); st.Puts != want {
		t.Fatalf("puts = %d, want %d (three intermediates x five runs)", st.Puts, want)
	}
}

// TestRunArenaOutputNotRecycled guards the pinning rule: a graph output's
// buffer must never return to the arena, or a later run would overwrite a
// tensor the caller still holds.
func TestRunArenaOutputNotRecycled(t *testing.T) {
	g, feeds := smallGraph()
	plan := twoLanePlan(t, g)
	ar := tensor.NewArena()
	first, err := plan.Execute(context.Background(), feeds, ar)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float32(nil), first["out"].Data()...)
	for i := 0; i < 10; i++ {
		if _, err := plan.Execute(context.Background(), feeds, ar); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range first["out"].Data() {
		if v != snapshot[i] {
			t.Fatalf("output buffer was recycled: element %d changed %v -> %v", i, snapshot[i], v)
		}
	}
}

// TestRunArenaSteadyState: after the first run seeded the free lists, the
// only fresh allocations per run are the escaping outputs.
func TestRunArenaSteadyState(t *testing.T) {
	g, feeds := smallGraph()
	plan := twoLanePlan(t, g)
	ar := tensor.NewArena()
	if _, err := plan.Execute(context.Background(), feeds, ar); err != nil {
		t.Fatal(err)
	}
	missesAfterWarm := ar.Stats().Misses.Load()
	const runs = 20
	for i := 0; i < runs; i++ {
		if _, err := plan.Execute(context.Background(), feeds, ar); err != nil {
			t.Fatal(err)
		}
	}
	// smallGraph has one output; each run permanently takes one buffer out
	// of the output's size class, so at most one miss per run.
	delta := ar.Stats().Misses.Load() - missesAfterWarm
	if delta > runs {
		t.Fatalf("misses grew by %d over %d steady-state runs, want <= %d (outputs only)",
			delta, runs, runs)
	}
	// Between runs nothing is checked out: intermediates were Put back and
	// graph outputs escaped the accounting. A long-lived arena must report
	// a flat working set, not a per-run ratchet.
	if inUse := ar.Stats().InUseBytes.Load(); inUse != 0 {
		t.Fatalf("in-use bytes = %d between runs, want 0 (escaped outputs still counted?)", inUse)
	}
}

// TestRunArenaConcurrentIndependentArenas is the acceptance-criteria race
// test: many goroutines share one immutable Plan, each run owning its own
// arena (run with -race).
func TestRunArenaConcurrentIndependentArenas(t *testing.T) {
	g, feeds := smallGraph()
	ref, err := RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	plan := twoLanePlan(t, g)
	const goroutines, iters = 16, 25
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar := tensor.NewArena() // per-goroutine arena, reused across its runs
			for j := 0; j < iters; j++ {
				out, err := plan.Execute(context.Background(), feeds, ar)
				if err != nil {
					t.Errorf("concurrent arena run: %v", err)
					return
				}
				if !out["out"].Equal(ref["out"]) {
					t.Error("concurrent arena run diverged from sequential reference")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunArenaMixedWithPlainRuns: runs on a kept arena and runs with a nil
// arena (a fresh arena for that one run) interleave freely on one plan.
func TestRunArenaMixedWithPlainRuns(t *testing.T) {
	g, feeds := smallGraph()
	ref, err := RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	plan := twoLanePlan(t, g)
	ar := tensor.NewArena()
	for i := 0; i < 6; i++ {
		var out Env
		if i%2 == 0 {
			out, err = plan.Execute(context.Background(), feeds, ar)
		} else {
			out, err = plan.Execute(context.Background(), feeds, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !out["out"].Equal(ref["out"]) {
			t.Fatalf("run %d diverged", i)
		}
	}
}

// TestRunArenaSharedValueAcrossLanes stresses a value consumed in several
// lanes: the release must wait for the last consumer regardless of lane.
func TestRunArenaSharedValueAcrossLanes(t *testing.T) {
	g := graph.New("fan")
	g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{64}}}
	g.AddNode("r", "Relu", []string{"x"}, []string{"v"}, nil)
	g.AddNode("a", "Sigmoid", []string{"v"}, []string{"va"}, nil)
	g.AddNode("b", "Neg", []string{"v"}, []string{"vb"}, nil)
	g.AddNode("c", "Exp", []string{"v"}, []string{"vc"}, nil)
	g.AddNode("s1", "Add", []string{"va", "vb"}, []string{"t"}, nil)
	g.AddNode("s2", "Add", []string{"t", "vc"}, []string{"out"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	feeds := Env{"x": tensor.NewRNG(3).RandTensor(64)}

	ref, err := RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	// One lane per consumer of v, plus the spine.
	byName := map[string]*graph.Node{}
	for _, n := range g.Nodes {
		byName[n.Name] = n
	}
	lanes := [][]*graph.Node{
		{byName["r"], byName["a"], byName["s1"], byName["s2"]},
		{byName["b"]},
		{byName["c"]},
	}
	plan, err := NewPlan(g, lanes)
	if err != nil {
		t.Fatal(err)
	}
	ar := tensor.NewArena()
	for i := 0; i < 50; i++ {
		out, err := plan.Execute(context.Background(), feeds, ar)
		if err != nil {
			t.Fatal(err)
		}
		if !out["out"].AllClose(ref["out"], 1e-6, 1e-7) {
			t.Fatalf("run %d: fan-out value released too early?", i)
		}
	}
}

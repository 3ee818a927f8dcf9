package exec

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// planFor compiles a trivial one-lane plan for a graph.
func planFor(t *testing.T, g *graph.Graph) *Plan {
	t.Helper()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(g, [][]*graph.Node{order})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestInPlaceArenaRunMatchesSequential runs an elementwise-heavy graph
// through the arena executor (which runs bound kernels in place on proved
// nodes) and checks outputs against the plain sequential reference, plus
// that the release schedule actually marked nodes in-place and the arena
// stays balanced across runs.
func TestInPlaceArenaRunMatchesSequential(t *testing.T) {
	g := graph.New("chainy")
	r := tensor.NewRNG(2)
	g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{1, 8, 6, 6}}}
	g.AddInitializer("w", r.RandTensor(8, 8, 3, 3))
	g.AddNode("conv", "Conv", []string{"x", "w"}, []string{"c"}, ops.Attrs{"pads": []int{1, 1, 1, 1}})
	g.AddNode("relu", "Relu", []string{"c"}, []string{"r"}, nil)
	g.AddNode("sig", "Sigmoid", []string{"r"}, []string{"s"}, nil)
	g.AddNode("tanh", "Tanh", []string{"s"}, []string{"out"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	g.Reindex()

	feeds := models.RandomInputs(g, 9)
	want, err := RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}

	p := planFor(t, g)
	marked := 0
	for i := range p.table().lanes[0] {
		if p.table().lanes[0][i].inplace {
			marked++
		}
	}
	// relu and sig consume single-use intermediates; tanh produces the
	// graph output but still consumes s in place.
	if marked < 2 {
		t.Fatalf("only %d nodes marked in-place, want >= 2", marked)
	}

	ar := tensor.NewArena()
	for run := 0; run < 3; run++ {
		got, err := p.Execute(context.Background(), feeds, ar)
		if err != nil {
			t.Fatal(err)
		}
		if !got["out"].AllClose(want["out"], 1e-6, 1e-7) {
			t.Fatalf("run %d: in-place arena run diverges (max diff %v)",
				run, got["out"].MaxAbsDiff(want["out"]))
		}
	}
	// Ownership transfer must not double-release: every Get is matched by
	// at most one Put, and outputs escape.
	st := ar.Stats().Snapshot()
	if st.Puts > st.Gets {
		t.Errorf("arena released more buffers (%d) than it handed out (%d)", st.Puts, st.Gets)
	}
}

// TestInPlaceReducesArenaTraffic compares arena gets with and without the
// in-place schedule on the same graph: the in-place run must allocate
// strictly fewer buffers per run.
func TestInPlaceReducesArenaTraffic(t *testing.T) {
	g := models.MustBuild("squeezenet", models.Config{ImageSize: 16})
	feeds := models.RandomInputs(g, 1)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	lanes := [][]*graph.Node{order}

	countGets := func(disableInPlace bool) int64 {
		p, err := NewPlan(g, lanes)
		if err != nil {
			t.Fatal(err)
		}
		if disableInPlace {
			steps := p.table().lanes[0]
			for i := range steps {
				if s := &steps[i]; s.inplace {
					// Restore the release the in-place schedule elided.
					s.inplace = false
					s.release = append([]int32{s.in[0]}, s.release...)
				}
			}
		}
		ar := tensor.NewArena()
		if _, err := p.Execute(context.Background(), feeds, ar); err != nil {
			t.Fatal(err)
		}
		return ar.Stats().Snapshot().Gets
	}

	with := countGets(false)
	without := countGets(true)
	if with >= without {
		t.Errorf("in-place run made %d arena gets, baseline %d — expected a reduction", with, without)
	}
	t.Logf("arena gets: %d in-place vs %d baseline", with, without)
}

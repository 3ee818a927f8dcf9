package exec

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// gemmGraph: x -> Gemm(W const, b const) -> Relu -> MatMul(V const) -> out.
func gemmGraph() (*graph.Graph, Env) {
	r := tensor.NewRNG(71)
	g := graph.New("gemmchain")
	g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{3, 8}}}
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	g.AddInitializer("W", r.RandTensor(8, 13))
	g.AddInitializer("b", r.RandTensor(13))
	g.AddInitializer("V", r.RandTensor(13, 5))
	g.AddNode("g", "Gemm", []string{"x", "W", "b"}, []string{"vg"}, nil)
	g.AddNode("r", "Relu", []string{"vg"}, []string{"vr"}, nil)
	g.AddNode("m", "MatMul", []string{"vr", "V"}, []string{"out"}, nil)
	feeds := Env{"x": r.RandTensor(3, 8)}
	return g, feeds
}

// TestPlanPrepacksConstantWeights: a plan over a graph with constant GEMM
// operands must build a prepack table, and prepacked parallel runs must be
// bit-identical to the sequential reference (which packs at call time).
func TestPlanPrepacksConstantWeights(t *testing.T) {
	g, feeds := gemmGraph()
	ns := g.Nodes
	plan, err := NewPlan(g, [][]*graph.Node{{ns[0], ns[1], ns[2]}})
	if err != nil {
		t.Fatal(err)
	}
	nodes, bytes := plan.PrepackWeights()
	if nodes != 2 {
		t.Fatalf("prepacked %d nodes, want 2 (Gemm + MatMul)", nodes)
	}
	if bytes <= 0 {
		t.Fatal("prepacked bytes not reported")
	}
	want, err := RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Execute(context.Background(), feeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got["out"].Equal(want["out"]) {
		t.Error("prepacked parallel run differs from sequential reference")
	}
	// Arena runs share the same packed table.
	ar := tensor.NewArena()
	got2, err := plan.Execute(context.Background(), feeds, ar)
	if err != nil {
		t.Fatal(err)
	}
	if !got2["out"].Equal(want["out"]) {
		t.Error("prepacked arena run differs from sequential reference")
	}
}

// TestPrepackSharedAcrossReplicas: nodes sharing one weight initializer
// (hyperclustering replicates nodes per sample, weights shared) must
// share one packing — per-replica copies would multiply resident packed
// bytes by the batch size.
func TestPrepackSharedAcrossReplicas(t *testing.T) {
	r := tensor.NewRNG(73)
	g := graph.New("replicas")
	g.Inputs = []graph.ValueInfo{
		{Name: "x0", Shape: tensor.Shape{2, 8}},
		{Name: "x1", Shape: tensor.Shape{2, 8}},
	}
	g.Outputs = []graph.ValueInfo{{Name: "o0"}, {Name: "o1"}}
	g.AddInitializer("W", r.RandTensor(8, 6))
	g.AddNode("m0", "MatMul", []string{"x0", "W"}, []string{"o0"}, nil)
	g.AddNode("m1", "MatMul", []string{"x1", "W"}, []string{"o1"}, nil)
	plan, err := NewPlan(g, [][]*graph.Node{{g.Nodes[0], g.Nodes[1]}})
	if err != nil {
		t.Fatal(err)
	}
	nodes, bytes := plan.PrepackWeights()
	if nodes != 2 {
		t.Fatalf("prepacked %d nodes, want 2", nodes)
	}
	tbl := plan.bind()
	if tbl[g.Nodes[0]].Packed != tbl[g.Nodes[1]].Packed {
		t.Error("replicas of one weight got separate packings")
	}
	if want := tbl[g.Nodes[0]].Packed.Bytes(); bytes != want {
		t.Errorf("bytes = %d, want %d (shared packing counted once)", bytes, want)
	}
}

// TestPrepackSkipsFeedableInitializers: a name that is both initializer
// and graph input can be overridden by a feed, so it must not be baked in.
func TestPrepackSkipsFeedableInitializers(t *testing.T) {
	r := tensor.NewRNG(72)
	g := graph.New("feedable")
	g.Inputs = []graph.ValueInfo{
		{Name: "x", Shape: tensor.Shape{2, 4}},
		{Name: "W", Shape: tensor.Shape{4, 6}},
	}
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	g.AddInitializer("W", r.RandTensor(4, 6))
	g.AddNode("m", "MatMul", []string{"x", "W"}, []string{"out"}, nil)
	plan, err := NewPlan(g, [][]*graph.Node{{g.Nodes[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if nodes, _ := plan.PrepackWeights(); nodes != 0 {
		t.Fatalf("prepacked %d nodes despite feedable weight", nodes)
	}
	// And the override actually takes effect.
	wOverride := r.RandTensor(4, 6)
	feeds := Env{"x": r.RandTensor(2, 4), "W": wOverride}
	got, err := plan.Execute(context.Background(), feeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if !got["out"].Equal(want["out"]) {
		t.Error("feed-overridden weight ignored")
	}
}

// TestMeasureCostsRecordsScratch: the measurement sweep must record the
// kernel scratch sizes the memory planner consumes.
func TestMeasureCostsRecordsScratch(t *testing.T) {
	g, feeds := gemmGraph()
	mm, err := MeasureCosts(g, feeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mm.ScratchNumel["g"] <= 0 || mm.ScratchNumel["m"] <= 0 {
		t.Fatalf("GEMM scratch not recorded: %v", mm.ScratchNumel)
	}
	if mm.ScratchNumel["r"] != 0 {
		t.Errorf("Relu recorded scratch %d", mm.ScratchNumel["r"])
	}
}

// TestPrepackNotSharedWithView: two MatMuls on one constant weight, the
// second reading it through a view (its transpose), must not share the
// first one's packing.
func TestPrepackNotSharedWithView(t *testing.T) {
	r := tensor.NewRNG(3)
	g := graph.New("view")
	g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{2, 4}}}
	g.Outputs = []graph.ValueInfo{{Name: "plain"}, {Name: "viewed"}}
	g.AddInitializer("W", r.RandTensor(4, 4))
	g.AddNode("m1", "MatMul", []string{"x", "W"}, []string{"plain"}, nil)
	g.AddNode("m2", "MatMul", []string{"x", "W"}, []string{"viewed"}, ops.Attrs{ops.AttrViewBPerm: []int{1, 0}})
	feeds := Env{"x": r.RandTensor(2, 4)}
	plan, err := NewPlan(g, [][]*graph.Node{g.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	if nodes, _ := plan.PrepackWeights(); nodes != 1 {
		t.Fatalf("prepacked %d nodes, want 1", nodes)
	}
	want, err := RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Execute(context.Background(), feeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plain", "viewed"} {
		if !got[name].Equal(want[name]) {
			t.Errorf("%s: prepacked run differs from the sequential reference", name)
		}
	}
}

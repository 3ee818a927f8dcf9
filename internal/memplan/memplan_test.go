package memplan

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// chainGraph builds in -> A -> a -> B -> b -> C -> out.
func chainGraph() *graph.Graph {
	g := graph.New("chain")
	g.Inputs = []graph.ValueInfo{{Name: "in"}}
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	g.AddNode("A", "Relu", []string{"in"}, []string{"a"}, nil)
	g.AddNode("B", "Relu", []string{"a"}, []string{"b"}, nil)
	g.AddNode("C", "Relu", []string{"b"}, []string{"out"}, nil)
	return g
}

// diamondGraph builds in -> A -> a consumed by B and C, joined by D -> out.
func diamondGraph() *graph.Graph {
	g := graph.New("diamond")
	g.Inputs = []graph.ValueInfo{{Name: "in"}}
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	g.AddNode("A", "Relu", []string{"in"}, []string{"a"}, nil)
	g.AddNode("B", "Relu", []string{"a"}, []string{"b"}, nil)
	g.AddNode("C", "Sigmoid", []string{"a"}, []string{"c"}, nil)
	g.AddNode("D", "Add", []string{"b", "c"}, []string{"out"}, nil)
	return g
}

func TestChainLivenessAndReuse(t *testing.T) {
	g := chainGraph()
	p, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// "a" and "b" are managed; "out" (the graph output) and "in" (a graph
	// input) are not.
	if p.Managed() != 2 {
		t.Fatalf("managed = %d, want 2", p.Managed())
	}
	if p.IndexOf("out") != Unmanaged || p.IndexOf("in") != Unmanaged {
		t.Fatal("graph input/output must be unmanaged")
	}
	// "a" is defined by A (position 0) and dies at B (position 1).
	if iv := p.live[p.IndexOf("a")]; iv.Def != 0 || iv.LastUse != 1 {
		t.Fatalf("a: interval %+v, want [0,1]", iv)
	}
	if p.UseCount("a") != 1 || p.UseCount("b") != 1 {
		t.Fatal("chain values must have one use each")
	}
}

func TestLongChainPeakLive(t *testing.T) {
	g := graph.New("chain5")
	g.Inputs = []graph.ValueInfo{{Name: "in"}}
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	prev := "in"
	vals := []string{"v0", "v1", "v2", "v3", "out"}
	for i, v := range vals {
		g.AddNode(string(rune('A'+i)), "Relu", []string{prev}, []string{v}, nil)
		prev = v
	}
	p, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Four managed values but only two ever live at once (each op's input
	// and output): the peak is two buffers, not four.
	if p.Managed() != 4 {
		t.Fatalf("managed = %d, want 4", p.Managed())
	}
	e := p.Estimate(map[string]int{"v0": 100, "v1": 100, "v2": 100, "v3": 100})
	if e.TotalBytes != 1600 || e.PeakLiveBytes != 800 {
		t.Fatalf("total %d, peak %d; want 1600 and 800 (two live buffers)", e.TotalBytes, e.PeakLiveBytes)
	}
}

func TestDiamondUseCounts(t *testing.T) {
	p, err := Build(diamondGraph(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.UseCount("a") != 2 {
		t.Fatalf("a uses = %d, want 2 (B and C)", p.UseCount("a"))
	}
	// A, B, C, D take positions 0-3: "a" lives until C, the later consumer.
	if iv := p.live[p.IndexOf("a")]; iv.LastUse != 2 {
		t.Fatalf("a last use at %d, want 2 (C, later in topo order)", iv.LastUse)
	}
	refs := p.InitialRefs()
	if len(refs) != 3 {
		t.Fatalf("refs = %v, want 3 managed values", refs)
	}
	refs[p.IndexOf("a")] = 0 // mutating the copy must not touch the plan
	if p.UseCount("a") != 2 {
		t.Fatal("InitialRefs must return a copy")
	}
}

func TestDuplicateInputCountsPerOccurrence(t *testing.T) {
	g := graph.New("dup")
	g.Inputs = []graph.ValueInfo{{Name: "in"}}
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	g.AddNode("A", "Relu", []string{"in"}, []string{"a"}, nil)
	g.AddNode("B", "Add", []string{"a", "a"}, []string{"out"}, nil)
	p, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The executor decrements once per input occurrence, so the static
	// count must match: 2, not 1.
	if p.UseCount("a") != 2 {
		t.Fatalf("a uses = %d, want 2 (one per occurrence)", p.UseCount("a"))
	}
}

func TestZeroUseValue(t *testing.T) {
	g := graph.New("deadout")
	g.Inputs = []graph.ValueInfo{{Name: "in"}}
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	// Split-style node with a second output nobody consumes.
	g.AddNode("A", "Split", []string{"in"}, []string{"used", "dead"}, nil)
	g.AddNode("B", "Relu", []string{"used"}, []string{"out"}, nil)
	p, err := Build(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.UseCount("dead") != 0 {
		t.Fatalf("dead uses = %d, want 0", p.UseCount("dead"))
	}
	i := p.IndexOf("dead")
	if i == Unmanaged || p.live[i].Def != p.live[i].LastUse {
		t.Fatalf("dead index %d, want a managed dead-on-arrival value", i)
	}
	if s := p.Summary(); s.ZeroUse != 1 {
		t.Fatalf("summary zero-use = %d, want 1", s.ZeroUse)
	}
}

func TestLaneCoverageValidated(t *testing.T) {
	g := chainGraph()
	_, err := Build(g, [][]*graph.Node{{g.Nodes[0]}}) // misses 2 nodes
	if err == nil {
		t.Fatal("want coverage error for partial lanes")
	}
	if _, err := Build(g, [][]*graph.Node{g.Nodes[:2], g.Nodes[2:]}); err != nil {
		t.Fatalf("full lanes rejected: %v", err)
	}
}

func TestEstimate(t *testing.T) {
	p, err := Build(chainGraph(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{"a": 100, "b": 100, "out": 100}
	e := p.Estimate(sizes)
	if e.TotalBytes != 800 { // a + b, 4 bytes each elem
		t.Fatalf("total = %d, want 800", e.TotalBytes)
	}
	// a and b overlap at node B, both live: peak 800.
	if e.PeakLiveBytes != 800 {
		t.Fatalf("peak = %d, want 800", e.PeakLiveBytes)
	}
	if e.ScratchBytes != 0 {
		t.Fatalf("plain Estimate must not include scratch, got %d", e.ScratchBytes)
	}
}

func TestEstimateWithScratch(t *testing.T) {
	p, err := Build(chainGraph(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{"a": 100, "b": 100, "out": 100}
	// Per-node kernel scratch (im2col + packing); the estimate reports the
	// largest single draw, not the sum — scratch is returned within a node.
	scratch := map[string]int{"A": 50, "B": 300, "C": 10}
	e := p.EstimateWithScratch(sizes, scratch)
	if e.ScratchBytes != 4*300 {
		t.Fatalf("scratch = %d, want %d (largest node)", e.ScratchBytes, 4*300)
	}
	if e.PeakLiveBytes != 800 || e.TotalBytes != 800 {
		t.Fatal("scratch accounting must not disturb value estimates")
	}
	if e2 := p.EstimateWithScratch(sizes, nil); e2.ScratchBytes != 0 {
		t.Fatalf("nil scratch map: got %d", e2.ScratchBytes)
	}
}

func TestRandomGraphsConsistency(t *testing.T) {
	rng := tensor.NewRNG(7)
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomDAG(rng, 40)
		p, err := Build(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Invariants: every produced value is managed unless it is a graph
		// output; refs length matches; a value's interval is empty exactly
		// when nothing consumes it.
		produced, outputs := 0, 0
		for _, n := range g.Nodes {
			produced += len(n.Outputs)
			for _, out := range n.Outputs {
				if g.IsGraphOutput(out) {
					outputs++
				}
			}
		}
		if p.Managed()+outputs != produced {
			t.Fatalf("managed %d + graph outputs %d != produced %d", p.Managed(), outputs, produced)
		}
		if len(p.InitialRefs()) != p.Managed() {
			t.Fatal("refs length mismatch")
		}
		for i, name := range p.names {
			iv := p.live[i]
			if iv.Def > iv.LastUse || (p.uses[i] == 0) != (iv.Def == iv.LastUse) {
				t.Fatalf("%q: interval %+v with %d uses", name, iv, p.uses[i])
			}
		}
	}
}

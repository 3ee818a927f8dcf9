package exec

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// TestExecuteEdgeCasesMatchReference runs two-lane plans over the value
// aliasing and failure shapes the run table must route by slot, comparing
// a heap run, an arena run and the sequential reference: outputs must be
// bit-identical, and a failing graph must fail on every path with the
// reference's error text.
func TestExecuteEdgeCasesMatchReference(t *testing.T) {
	r := tensor.NewRNG(5)
	x := r.RandTensor(2, 4)
	cases := []struct {
		name  string
		build func(g *graph.Graph)
		// lane1 names the nodes of lane 1; every other node runs in lane 0.
		lane1   []string
		feeds   Env
		wantErr string
	}{
		{
			name: "output aliases a graph input",
			build: func(g *graph.Graph) {
				g.AddNode("a", "Relu", []string{"x"}, []string{"va"}, nil)
				g.AddNode("b", "Neg", []string{"x"}, []string{"vb"}, nil)
				g.Outputs = []graph.ValueInfo{{Name: "va"}, {Name: "vb"}, {Name: "x"}}
			},
			lane1: []string{"b"},
		},
		{
			name: "output aliases an initializer",
			build: func(g *graph.Graph) {
				g.AddInitializer("w", r.RandTensor(2, 4))
				g.AddNode("a", "Add", []string{"x", "w"}, []string{"va"}, nil)
				g.AddNode("b", "Neg", []string{"w"}, []string{"vb"}, nil)
				g.Outputs = []graph.ValueInfo{{Name: "va"}, {Name: "vb"}, {Name: "w"}}
			},
			lane1: []string{"b"},
		},
		{
			name: "node-produced output read by another lane",
			build: func(g *graph.Graph) {
				g.AddNode("a", "Relu", []string{"x"}, []string{"va"}, nil)
				g.AddNode("b", "Neg", []string{"va"}, []string{"vb"}, nil)
				g.AddNode("c", "Sigmoid", []string{"va"}, []string{"vc"}, nil)
				g.Outputs = []graph.ValueInfo{{Name: "va"}, {Name: "vb"}, {Name: "vc"}}
			},
			lane1: []string{"b"},
		},
		{
			name: "Add(v, v) of a remote value",
			build: func(g *graph.Graph) {
				g.AddNode("a", "Relu", []string{"x"}, []string{"v"}, nil)
				g.AddNode("b", "Add", []string{"v", "v"}, []string{"vb"}, nil)
				g.AddNode("c", "Tanh", []string{"v"}, []string{"vc"}, nil)
				g.AddNode("d", "Mul", []string{"vb", "vc"}, []string{"out"}, nil)
				g.Outputs = []graph.ValueInfo{{Name: "out"}}
			},
			lane1: []string{"b", "c", "d"},
		},
		{
			name: "initializer that is also a graph input",
			build: func(g *graph.Graph) {
				g.Inputs = append(g.Inputs, graph.ValueInfo{Name: "W", Shape: tensor.Shape{4, 3}})
				g.AddInitializer("W", r.RandTensor(4, 3))
				g.AddNode("m", "MatMul", []string{"x", "W"}, []string{"vm"}, nil)
				g.AddNode("b", "Relu", []string{"W"}, []string{"vb"}, nil)
				g.Outputs = []graph.ValueInfo{{Name: "vm"}, {Name: "vb"}}
			},
			lane1: []string{"b"},
			feeds: Env{"x": x, "W": r.RandTensor(4, 3)},
		},
		{
			name: "missing input",
			build: func(g *graph.Graph) {
				g.AddNode("a", "Relu", []string{"x"}, []string{"va"}, nil)
				g.AddNode("b", "Add", []string{"va", "ghost"}, []string{"vb"}, nil)
				g.Outputs = []graph.ValueInfo{{Name: "vb"}}
			},
			lane1:   []string{"b"},
			wantErr: `exec: node b: input "ghost" not available`,
		},
		{
			name: "unknown op",
			build: func(g *graph.Graph) {
				g.AddNode("a", "NoSuchOp", []string{"x"}, []string{"va"}, nil)
				g.AddNode("b", "Relu", []string{"x"}, []string{"vb"}, nil)
				g.Outputs = []graph.ValueInfo{{Name: "va"}, {Name: "vb"}}
			},
			lane1:   []string{"b"},
			wantErr: `exec: node a: ops: no kernel registered for op type "NoSuchOp"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.New(tc.name)
			g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{2, 4}}}
			tc.build(g)
			var lanes [2][]*graph.Node
			for _, n := range g.Nodes {
				li := 0
				for _, name := range tc.lane1 {
					if n.Name == name {
						li = 1
					}
				}
				lanes[li] = append(lanes[li], n)
			}
			plan, err := NewPlan(g, lanes[:])
			if err != nil {
				t.Fatal(err)
			}
			feeds := tc.feeds
			if feeds == nil {
				feeds = Env{"x": x}
			}
			if m := g.NodeByName("m"); m != nil && plan.bind()[m].Packed != nil {
				t.Error("prepacked a weight a feed can override")
			}
			want, seqErr := RunSequential(g, feeds)
			ar := tensor.NewArena()
			for _, run := range []struct {
				name string
				ar   *tensor.Arena
			}{{"heap", nil}, {"arena", ar}, {"warm arena", ar}} {
				got, err := plan.Execute(context.Background(), feeds, run.ar)
				if tc.wantErr != "" {
					if seqErr == nil || !strings.Contains(seqErr.Error(), tc.wantErr) {
						t.Fatalf("reference error %v, want %q", seqErr, tc.wantErr)
					}
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Errorf("%s run: error %v, want %q", run.name, err, tc.wantErr)
					}
					continue
				}
				if seqErr != nil || err != nil {
					t.Fatalf("%s run: reference error %v, run error %v", run.name, seqErr, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s run: %d outputs, reference %d", run.name, len(got), len(want))
				}
				for name, w := range want {
					if !got[name].Equal(w) {
						t.Errorf("%s run: output %q differs from the reference", run.name, name)
					}
				}
			}
		})
	}
}

// TestRunCostIndependentOfInitializers: a run copies one template frame, so
// initializers no node reads cost it nothing — neither per-name copies nor
// map growth.
func TestRunCostIndependentOfInitializers(t *testing.T) {
	allocs := func(unused int) float64 {
		g, feeds := smallGraph()
		for i := 0; i < unused; i++ {
			g.AddInitializer(fmt.Sprintf("unused%d", i), tensor.Zeros(1))
		}
		ns := g.Nodes
		plan, err := NewPlan(g, [][]*graph.Node{{ns[0], ns[1], ns[3]}, {ns[2]}})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		return testing.AllocsPerRun(50, func() {
			if _, err := plan.Execute(ctx, feeds, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(1), allocs(1000)
	if math.Abs(many-one) > 1 {
		t.Errorf("allocs per run: %v with 1 unused initializer, %v with 1,000", one, many)
	}
}

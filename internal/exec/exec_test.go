package exec

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// smallGraph: x -> Relu -> {Sigmoid, Neg} -> Add -> out.
func smallGraph() (*graph.Graph, Env) {
	g := graph.New("small")
	g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{4}}}
	g.AddNode("r", "Relu", []string{"x"}, []string{"vr"}, nil)
	g.AddNode("s", "Sigmoid", []string{"vr"}, []string{"vs"}, nil)
	g.AddNode("n", "Neg", []string{"vr"}, []string{"vn"}, nil)
	g.AddNode("a", "Add", []string{"vs", "vn"}, []string{"out"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	feeds := Env{"x": tensor.FromSlice([]float32{-1, 0, 1, 2})}
	return g, feeds
}

func TestRunSequentialSmall(t *testing.T) {
	g, feeds := smallGraph()
	out, err := RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	got := out["out"]
	if got == nil || got.Numel() != 4 {
		t.Fatalf("bad output: %v", got)
	}
	// sigmoid(relu(x)) - relu(x) for x=2: sigmoid(2) - 2.
	want := float32(1/(1+math.Exp(-2))) - 2
	if diff := got.Data()[3] - want; diff > 1e-5 || diff < -1e-5 {
		t.Errorf("out[3] = %v, want %v", got.Data()[3], want)
	}
}

func TestRunSequentialMissingFeed(t *testing.T) {
	g, _ := smallGraph()
	if _, err := RunSequential(g, Env{}); err == nil {
		t.Error("missing feed accepted")
	}
}

func TestRunSequentialShapeMismatch(t *testing.T) {
	g, _ := smallGraph()
	if _, err := RunSequential(g, Env{"x": tensor.Zeros(7)}); err == nil {
		t.Error("wrong-shape feed accepted")
	}
}

func TestRunSequentialUnknownOp(t *testing.T) {
	g := graph.New("bad")
	g.Inputs = []graph.ValueInfo{{Name: "x"}}
	g.AddNode("z", "NoSuchOp", []string{"x"}, []string{"y"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "y"}}
	_, err := RunSequential(g, Env{"x": tensor.Zeros(1)})
	if err == nil || !strings.Contains(err.Error(), "NoSuchOp") {
		t.Errorf("unknown op not reported: %v", err)
	}
}

func TestNewPlanValidatesPartition(t *testing.T) {
	g, _ := smallGraph()
	ns := g.Nodes
	if _, err := NewPlan(g, [][]*graph.Node{{ns[0], ns[1]}, {ns[2]}}); err == nil {
		t.Error("incomplete lane cover accepted")
	}
	if _, err := NewPlan(g, [][]*graph.Node{{ns[0], ns[1], ns[2], ns[3]}, {ns[0]}}); err == nil {
		t.Error("duplicate node accepted")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g, feeds := smallGraph()
	ns := g.Nodes
	plan, err := NewPlan(g, [][]*graph.Node{{ns[0], ns[1], ns[3]}, {ns[2]}})
	if err != nil {
		t.Fatal(err)
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
		t.Error("parallel result differs from sequential")
	}
}

func TestParallelProfileCountsMessages(t *testing.T) {
	g, feeds := smallGraph()
	ns := g.Nodes
	plan, _ := NewPlan(g, [][]*graph.Node{{ns[0], ns[1], ns[3]}, {ns[2]}})
	plan.EnableTimeline(1, 1)
	if _, err := plan.Execute(context.Background(), feeds, nil); err != nil {
		t.Fatal(err)
	}
	tl := plan.LastTimeline()
	if tl == nil {
		t.Fatal("sampled run left no timeline")
	}
	var sends, waits [2]int
	for _, s := range tl.Spans {
		switch s.Kind {
		case obs.SpanSend:
			sends[s.Lane]++
		case obs.SpanRecvWait:
			waits[s.Lane]++
		}
	}
	// Lane 0 sends vr and receives vn; lane 1 receives vr and sends vn.
	if sends != [2]int{1, 1} || waits != [2]int{1, 1} {
		t.Errorf("sends per lane %v, receive waits per lane %v; want [1 1] each", sends, waits)
	}
	if tl.WallNs <= 0 || tl.WaitTimeNs() < 0 {
		t.Errorf("wall %d ns, wait %d ns", tl.WallNs, tl.WaitTimeNs())
	}
}

func TestParallelErrorPropagatesWithoutDeadlock(t *testing.T) {
	g := graph.New("failing")
	g.Inputs = []graph.ValueInfo{{Name: "x"}}
	g.AddNode("a", "Relu", []string{"x"}, []string{"va"}, nil)
	// MatMul on rank-1 input fails at run time.
	g.AddNode("bad", "MatMul", []string{"va", "va"}, []string{"vb"}, nil)
	g.AddNode("c", "Relu", []string{"vb"}, []string{"vc"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "vc"}}
	ns := g.Nodes
	plan, err := NewPlan(g, [][]*graph.Node{{ns[0], ns[1]}, {ns[2]}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.Execute(context.Background(), Env{"x": tensor.Zeros(3)}, nil)
	if err == nil {
		t.Fatal("kernel failure not propagated")
	}
}

func TestNewPlanOrderedRejectsDeadlock(t *testing.T) {
	// Two lanes each needing the other's later output in their stated
	// order: a->b in lane0 order [b-dependent first] is impossible within
	// one lane; craft cross-lane circular wait instead.
	g := graph.New("dl")
	g.Inputs = []graph.ValueInfo{{Name: "x"}}
	g.AddNode("a", "Relu", []string{"x"}, []string{"va"}, nil)
	g.AddNode("b", "Relu", []string{"va"}, []string{"vb"}, nil)
	g.AddNode("c", "Relu", []string{"vb"}, []string{"vc"}, nil)
	g.AddNode("d", "Relu", []string{"vc"}, []string{"vd"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "vd"}}
	ns := g.Nodes
	// Lane0: [c, a] — c waits for b (lane1) which waits for a (lane0,
	// behind c): deadlock. The error names the node each lane is stuck at.
	_, err := NewPlanOrdered(g, [][]*graph.Node{{ns[2], ns[0]}, {ns[1], ns[3]}})
	if err == nil {
		t.Error("deadlocking lane order accepted")
	} else if !strings.Contains(err.Error(), "deadlock at [c b]") {
		t.Errorf("error %q does not name the stuck nodes [c b]", err)
	}
	// Feasible order accepted and runs.
	plan, err := NewPlanOrdered(g, [][]*graph.Node{{ns[0], ns[2]}, {ns[1], ns[3]}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Execute(context.Background(), Env{"x": tensor.FromSlice([]float32{1})}, nil)
	if err != nil || out["vd"] == nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestSequentialPlanAndSimulate(t *testing.T) {
	g, _ := smallGraph()
	m := cost.DefaultModel()
	sp, err := SequentialPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sp, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != res.TotalWork {
		t.Errorf("sequential makespan %v != total work %v", res.Makespan, res.TotalWork)
	}
	if res.Speedup() != 1 {
		t.Errorf("sequential speedup = %v", res.Speedup())
	}
}

func TestSimulateParallelBounds(t *testing.T) {
	g, _ := smallGraph()
	m := cost.DefaultModel()
	ns := g.Nodes
	plan, _ := NewPlan(g, [][]*graph.Node{{ns[0], ns[1], ns[3]}, {ns[2]}})
	res, err := Simulate(plan, m)
	if err != nil {
		t.Fatal(err)
	}
	_, cp, _ := cost.CriticalPath(g, m)
	if res.Makespan < cp-1e-9 {
		// Cross-lane edges add overhead, so makespan >= CP without
		// intra-lane edge costs is not guaranteed exactly; but it must be
		// at least the heaviest single-lane work.
		t.Logf("makespan %v below CP %v (edge costs differ)", res.Makespan, cp)
	}
	if res.Makespan > res.TotalWork+float64(len(g.Nodes))*m.EdgeCost() {
		t.Errorf("makespan %v exceeds any sensible bound", res.Makespan)
	}
	if len(res.LaneBusy) != 2 {
		t.Errorf("lane busy = %v", res.LaneBusy)
	}
}

func TestMeasureCostsProducesPositiveDurations(t *testing.T) {
	g, feeds := smallGraph()
	mm, err := MeasureCosts(g, feeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(mm.ByName) != len(g.Nodes) {
		t.Fatalf("measured %d of %d nodes", len(mm.ByName), len(g.Nodes))
	}
	for name, d := range mm.ByName {
		if d <= 0 {
			t.Errorf("node %s measured %v", name, d)
		}
	}
	if mm.Edge != 3 {
		t.Errorf("default edge = %v", mm.Edge)
	}
	// Unmeasured nodes fall back to Default.
	ghost := &graph.Node{Name: "ghost", OpType: "Relu"}
	if mm.NodeCost(ghost) != mm.Default {
		t.Error("default cost not applied")
	}
}

// Property: on random DAGs, any 2-way split of the topological order into
// lanes runs and matches the simulated-progress check; moreover the
// simulated makespan is between max-lane-work and total work + edges.
func TestSimulateRandomPlans(t *testing.T) {
	m := cost.DefaultModel()
	f := func(seed uint32) bool {
		g := graph.RandomDAG(tensor.NewRNG(uint64(seed)+17), 24)
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		var a, b []*graph.Node
		for i, n := range order {
			if i%2 == 0 {
				a = append(a, n)
			} else {
				b = append(b, n)
			}
		}
		plan, err := NewPlan(g, [][]*graph.Node{a, b})
		if err != nil {
			return false
		}
		res, err := Simulate(plan, m)
		if err != nil {
			return false
		}
		maxLane := res.LaneBusy[0]
		if res.LaneBusy[1] > maxLane {
			maxLane = res.LaneBusy[1]
		}
		edges := float64(g.Stats().Edges) * m.EdgeCost()
		return res.Makespan >= maxLane-1e-9 && res.Makespan <= res.TotalWork+edges+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

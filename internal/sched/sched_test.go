package sched

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// widePara: src feeding k independent conv chains joined at a concat.
func widePara(k, depth int) *graph.Graph {
	g := graph.New("wide")
	g.Inputs = []graph.ValueInfo{{Name: "x"}}
	g.AddNode("src", "Relu", []string{"x"}, []string{"vs"}, nil)
	var joins []string
	for b := 0; b < k; b++ {
		cur := "vs"
		for d := 0; d < depth; d++ {
			out := "b" + itoa(b) + "_" + itoa(d)
			g.AddNode("conv"+itoa(b)+"_"+itoa(d), "Conv", []string{cur}, []string{out},
				ops.Attrs{"kernel_shape": []int{3, 3}})
			cur = out
		}
		joins = append(joins, cur)
	}
	g.AddNode("join", "Concat", joins, []string{"out"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	return g
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestContractChainsMergesLinearRuns(t *testing.T) {
	g := widePara(3, 4)
	ops, err := operatorChains(g, cost.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	chains := contractBlock(ops)
	// src, 3 branch chains, join = 5 chains.
	if len(chains) != 5 {
		t.Fatalf("got %d chains, want 5", len(chains))
	}
	total := 0
	for _, c := range chains {
		total += len(c.nodes)
	}
	if total != len(g.Nodes) {
		t.Errorf("chains cover %d of %d nodes", total, len(g.Nodes))
	}
	// The three branch chains must each hold `depth` nodes.
	branchChains := 0
	for _, c := range chains {
		if len(c.nodes) == 4 {
			branchChains++
		}
	}
	if branchChains != 3 {
		t.Errorf("branch chains = %d", branchChains)
	}
}

func TestBlocksSplitAtSyncPoints(t *testing.T) {
	// Two wide sections separated by a synchronization node.
	g := graph.New("twoblocks")
	g.Inputs = []graph.ValueInfo{{Name: "x"}}
	g.AddNode("s1", "Relu", []string{"x"}, []string{"v1"}, nil)
	g.AddNode("a", "Conv", []string{"v1"}, []string{"va"}, nil)
	g.AddNode("b", "Conv", []string{"v1"}, []string{"vb"}, nil)
	g.AddNode("sync", "Add", []string{"va", "vb"}, []string{"v2"}, nil)
	g.AddNode("c", "Conv", []string{"v2"}, []string{"vc"}, nil)
	g.AddNode("d", "Conv", []string{"v2"}, []string{"vd"}, nil)
	g.AddNode("end", "Add", []string{"vc", "vd"}, []string{"out"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	chains, err := operatorChains(g, cost.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	bs := blocks(chains)
	if len(bs) < 2 {
		t.Errorf("expected >= 2 blocks around the sync node, got %d", len(bs))
	}
	total := 0
	for _, blk := range bs {
		total += len(blk)
	}
	if total != len(chains) {
		t.Errorf("blocks cover %d of %d chains", total, len(chains))
	}
}

func TestIOSFindsParallelStages(t *testing.T) {
	g := widePara(4, 3)
	m := cost.DefaultModel()
	sched, err := IOS(g, m, DefaultIOSOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: src stage + one stage with all 4 branches parallel + join.
	seq := cost.GraphCost(g, m)
	if sched.Makespan >= seq {
		t.Errorf("IOS makespan %v not below sequential %v", sched.Makespan, seq)
	}
	if sched.StatesExplored <= 0 {
		t.Error("no DP states explored")
	}
	// All nodes present exactly once across stages.
	seen := map[string]bool{}
	for _, st := range sched.Stages {
		for _, grp := range st.Groups {
			for _, n := range grp {
				if seen[n.Name] {
					t.Fatalf("node %s scheduled twice", n.Name)
				}
				seen[n.Name] = true
			}
		}
	}
	if len(seen) != len(g.Nodes) {
		t.Errorf("schedule covers %d of %d nodes", len(seen), len(g.Nodes))
	}
}

func TestIOSWidthCap(t *testing.T) {
	g := widePara(6, 2)
	m := cost.DefaultModel()
	opts := DefaultIOSOptions()
	opts.MaxStageWidth = 2
	sched, err := IOS(g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sched.Stages {
		if len(st.Groups) > 2 {
			t.Fatalf("stage width %d exceeds cap 2", len(st.Groups))
		}
	}
}

func TestIOSLanesExecutable(t *testing.T) {
	// The staged schedule's lanes must form a runnable plan that matches
	// the sequential result.
	g := models.MustBuild("squeezenet", models.Config{ImageSize: 16})
	m := cost.DefaultModel()
	sched, err := IOS(g, m, DefaultIOSOptions())
	if err != nil {
		t.Fatal(err)
	}
	lanes := sched.Lanes()
	plan, err := exec.NewPlan(g, lanes)
	if err != nil {
		t.Fatal(err)
	}
	feeds := models.RandomInputs(g, 3)
	want, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Execute(context.Background(), feeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if !got[k].Equal(w) {
			t.Errorf("IOS plan output %s differs", k)
		}
	}
}

func TestIOSBeamFallbackOnWideBlocks(t *testing.T) {
	// One block whose 25 ready operators give the root state 2^25 stage
	// subsets: the DP spends its work budget and the block falls back to
	// the greedy beam.
	g := widePara(25, 1)
	m := cost.DefaultModel()
	sched, err := IOS(g, m, DefaultIOSOptions())
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, st := range sched.Stages {
		for _, grp := range st.Groups {
			seen += len(grp)
		}
	}
	if seen != len(g.Nodes) {
		t.Errorf("beam schedule covers %d of %d", seen, len(g.Nodes))
	}
}

func TestIOSCompileCostGrowsWithWidth(t *testing.T) {
	// The Table VIII story: DP work explodes with graph width while LC
	// stays linear. Check states explored grows superlinearly in width.
	m := cost.DefaultModel()
	s4, err := IOS(widePara(4, 2), m, DefaultIOSOptions())
	if err != nil {
		t.Fatal(err)
	}
	s8, err := IOS(widePara(8, 2), m, DefaultIOSOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s8.StatesExplored <= s4.StatesExplored*2 {
		t.Errorf("DP states: width4=%d width8=%d — not superlinear",
			s4.StatesExplored, s8.StatesExplored)
	}
}

// Property: IOS schedules of random DAGs always cover all nodes exactly
// once and have makespan between CP lower bound intuition and sequential.
func TestIOSCoversRandomDAGs(t *testing.T) {
	m := cost.DefaultModel()
	f := func(seed uint32) bool {
		g := graph.RandomDAG(tensor.NewRNG(uint64(seed)+41), 25)
		sched, err := IOS(g, m, DefaultIOSOptions())
		if err != nil {
			return false
		}
		seen := map[string]bool{}
		for _, st := range sched.Stages {
			for _, grp := range st.Groups {
				for _, n := range grp {
					if seen[n.Name] {
						return false
					}
					seen[n.Name] = true
				}
			}
		}
		return len(seen) == len(g.Nodes) && sched.Makespan <= cost.GraphCost(g, m)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

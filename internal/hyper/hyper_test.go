package hyper

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/models"
)

func squeezeClustering(t *testing.T) *core.Clustering {
	t.Helper()
	g := models.MustBuild("squeezenet", models.Config{ImageSize: 16})
	cl, err := core.LinearCluster(g, cost.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	return cl.MergeClusters()
}

func TestSampleSuffixRoundTrip(t *testing.T) {
	if got := sampleSuffix("conv_1", 3); got != "conv_1#3" {
		t.Fatalf("suffix = %q", got)
	}
	if SampleOf("conv_1#3") != 3 {
		t.Fatalf("SampleOf = %d", SampleOf("conv_1#3"))
	}
	if SampleOf("conv_1") != -1 || SampleOf("x#y") != -1 {
		t.Error("SampleOf accepted non-replicated names")
	}
	if SampleOf("a#12") != 12 {
		t.Error("multi-digit sample index")
	}
}

func TestReplicateBatchStructure(t *testing.T) {
	g := models.MustBuild("squeezenet", models.Config{ImageSize: 16})
	bg, err := ReplicateBatch(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(bg.Nodes) != 3*len(g.Nodes) {
		t.Errorf("replicated nodes = %d, want %d", len(bg.Nodes), 3*len(g.Nodes))
	}
	if len(bg.Inputs) != 3*len(g.Inputs) || len(bg.Outputs) != 3*len(g.Outputs) {
		t.Error("inputs/outputs not replicated per sample")
	}
	// Weights shared, not replicated.
	if len(bg.Initializers) != len(g.Initializers) {
		t.Errorf("initializers = %d, want %d (shared)", len(bg.Initializers), len(g.Initializers))
	}
	if err := bg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicateBatchRejectsBadBatch(t *testing.T) {
	g := models.MustBuild("squeezenet", models.Config{ImageSize: 16})
	if _, err := ReplicateBatch(g, 0); err == nil {
		t.Error("batch 0 accepted")
	}
}

func TestReplicateBatchSamplesIndependent(t *testing.T) {
	// Different feeds per sample must give the per-sample results of
	// running the base graph on each feed alone.
	g := models.MustBuild("squeezenet", models.Config{ImageSize: 16})
	bg, err := ReplicateBatch(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	f0 := models.RandomInputs(g, 100)
	f1 := models.RandomInputs(g, 200)
	feeds := exec.Env{}
	for k, v := range f0 {
		feeds[k+"#0"] = v
	}
	for k, v := range f1 {
		feeds[k+"#1"] = v
	}
	got, err := exec.RunSequential(bg, feeds)
	if err != nil {
		t.Fatal(err)
	}
	want0, _ := exec.RunSequential(g, f0)
	want1, _ := exec.RunSequential(g, f1)
	for k, w := range want0 {
		if !got[k+"#0"].Equal(w) {
			t.Errorf("sample 0 output %s differs", k)
		}
	}
	for k, w := range want1 {
		if !got[k+"#1"].Equal(w) {
			t.Errorf("sample 1 output %s differs", k)
		}
	}
}

func TestBuildHyperclusters(t *testing.T) {
	cl := squeezeClustering(t)
	h, err := Build(cl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Lanes) != len(cl.Clusters) {
		t.Errorf("lanes = %d, want %d", len(h.Lanes), len(cl.Clusters))
	}
	total := 0
	for _, lane := range h.Lanes {
		total += len(lane)
	}
	if total != len(h.Graph.Nodes) {
		t.Errorf("lanes cover %d of %d nodes", total, len(h.Graph.Nodes))
	}
	// Lane 0 interleaves samples: both sample tags must appear.
	seen := map[int]bool{}
	for _, n := range h.Lanes[0] {
		seen[SampleOf(n.Name)] = true
	}
	if !seen[0] || !seen[1] {
		t.Error("lane 0 does not interleave both samples")
	}
	if h.Switched {
		t.Error("plain build marked switched")
	}
}

func TestHyperclusterPlanRunsCorrectly(t *testing.T) {
	cl := squeezeClustering(t)
	for _, switched := range []bool{false, true} {
		var h *Hyperclustering
		var err error
		if switched {
			h, err = BuildSwitched(cl, 2)
		} else {
			h, err = Build(cl, 2)
		}
		if err != nil {
			t.Fatal(err)
		}
		plan, err := exec.NewPlanOrdered(h.Graph, h.Lanes)
		if err != nil {
			plan, err = exec.NewPlan(h.Graph, h.Lanes)
			if err != nil {
				t.Fatal(err)
			}
		}
		feeds := models.RandomInputs(h.Graph, 7)
		want, err := exec.RunSequential(h.Graph, feeds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Execute(context.Background(), feeds, nil)
		if err != nil {
			t.Fatalf("switched=%v: %v", switched, err)
		}
		for k, w := range want {
			if !got[k].Equal(w) {
				t.Errorf("switched=%v: output %s differs", switched, k)
			}
		}
	}
}

func TestSwitchedBalancesLoad(t *testing.T) {
	// The paper's Fig. 9 point: switched hyperclusters have better load
	// balance. Construct a two-cluster graph with skewed costs and check
	// the lane-cost spread shrinks.
	g := graph.New("skew")
	g.Inputs = []graph.ValueInfo{{Name: "x"}}
	cur := "x"
	for i := 0; i < 6; i++ {
		out := "h" + string(rune('0'+i))
		name := "heavy" + string(rune('0'+i))
		g.AddNode(name, "Conv", []string{cur}, []string{out}, nil)
		cur = out
	}
	g.AddNode("side", "Relu", []string{"h0"}, []string{"s0"}, nil)
	g.AddNode("join", "Add", []string{cur, "s0"}, []string{"out"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "out"}}

	cl, err := core.LinearCluster(g, cost.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Clusters) < 2 {
		t.Skip("need at least 2 clusters for the balance check")
	}
	spread := func(costs []float64) float64 {
		lo, hi := costs[0], costs[0]
		for _, c := range costs {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		return hi - lo
	}
	plain, err := Build(cl, 4)
	if err != nil {
		t.Fatal(err)
	}
	switched, err := BuildSwitched(cl, 4)
	if err != nil {
		t.Fatal(err)
	}
	ps := spread(plain.LaneCosts(cl))
	ss := spread(switched.LaneCosts(cl))
	if ss > ps {
		t.Errorf("switched spread %v worse than plain %v", ss, ps)
	}
	if ss >= ps && ps > 0 {
		t.Logf("spread plain=%v switched=%v", ps, ss)
	}
}

func TestSwitchedRotatesAssignments(t *testing.T) {
	cl := squeezeClustering(t)
	h, err := BuildSwitched(cl, len(cl.Clusters)+1)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Switched {
		t.Error("switched flag not set")
	}
	// Lane 0's sample-1 portion must come from cluster 1, not cluster 0:
	// find a sample-1 node in lane 0 and check it belongs to cluster 1 in
	// the base clustering.
	base := cl.ClusterOf()
	found := false
	for _, n := range h.Lanes[0] {
		if SampleOf(n.Name) == 1 {
			orig := n.Name[:len(n.Name)-2] // strip "#1"
			if base[orig] != 1 {
				t.Fatalf("lane0 sample1 node %s from cluster %d, want 1", n.Name, base[orig])
			}
			found = true
			break
		}
	}
	if !found {
		t.Error("no sample-1 node in lane 0")
	}
}

func TestHyperclusterSimulatedSpeedupGrowsWithBatch(t *testing.T) {
	// Fig. 13's shape: speedup rises with batch size (more independent
	// work fills slack).
	cl := squeezeClustering(t)
	m := cost.DefaultModel()
	var prev float64
	for _, batch := range []int{1, 2, 4} {
		h, err := Build(cl, batch)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := exec.NewPlanOrdered(h.Graph, h.Lanes)
		if err != nil {
			plan, err = exec.NewPlan(h.Graph, h.Lanes)
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := exec.Simulate(plan, m)
		if err != nil {
			t.Fatal(err)
		}
		sp := res.Speedup()
		if sp < prev-0.05 {
			t.Errorf("batch %d speedup %v fell below previous %v", batch, sp, prev)
		}
		prev = sp
	}
}

func TestEmptyClusteringRejected(t *testing.T) {
	g := graph.New("empty")
	cl := &core.Clustering{Graph: g, Model: cost.DefaultModel()}
	if _, err := Build(cl, 2); err == nil {
		t.Error("empty clustering accepted")
	}
}

package ramiel

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompileAndRunSqueezenet(t *testing.T) {
	g, err := BuildModel("squeezenet", ModelConfig{ImageSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumClusters() < 2 {
		t.Errorf("squeezenet should cluster into >= 2 lanes, got %d", prog.NumClusters())
	}
	if prog.CompileTime <= 0 {
		t.Error("no compile time recorded")
	}
	feeds := RandomInputs(g, 42)
	want, err := prog.RunSequential(feeds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.NewSession().Run(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if !got[k].Equal(w) {
			t.Errorf("output %s differs", k)
		}
	}
}

func TestCompilePipelineVariants(t *testing.T) {
	g, _ := BuildModel("yolo_v5", ModelConfig{})
	feeds := RandomInputs(g, 1)
	base, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.RunSequential(feeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Prune: true},
		{Clone: true},
		{Prune: true, Clone: true},
		{DisableMerge: true},
	} {
		prog, err := CompileWithOptions(g, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		got, err := prog.NewSession().Run(context.Background(), feeds)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for k, w := range want {
			if !got[k].AllClose(w, 1e-4, 1e-5) {
				t.Errorf("%+v: output %s differs", opts, k)
			}
		}
	}
}

func TestPruneReportOnConstantModels(t *testing.T) {
	g, _ := BuildModel("bert", ModelConfig{})
	prog, err := Compile(g, WithPrune())
	if err != nil {
		t.Fatal(err)
	}
	if prog.PruneReport.Fold.Folded == 0 {
		t.Error("BERT pruning folded nothing")
	}
	base, _ := Compile(g)
	if prog.NumClusters() >= base.NumClusters() {
		t.Errorf("pruning did not reduce clusters: %d vs %d (Table III shape)",
			prog.NumClusters(), base.NumClusters())
	}
}

func TestDisableMergeAblation(t *testing.T) {
	g, _ := BuildModel("googlenet", ModelConfig{ImageSize: 16})
	merged, _ := Compile(g)
	unmerged, _ := Compile(g, WithoutMerge())
	if unmerged.NumClusters() <= merged.NumClusters() {
		t.Errorf("merge ablation: unmerged %d <= merged %d",
			unmerged.NumClusters(), merged.NumClusters())
	}
}

func TestMetricsAndSimulate(t *testing.T) {
	g, _ := BuildModel("nasnet", ModelConfig{ImageSize: 16})
	prog, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	met, err := prog.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if met.Parallelism < 2 {
		t.Errorf("nasnet metrics %+v", met)
	}
	sim, err := prog.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if sim.Speedup() <= 1 {
		t.Errorf("nasnet simulated speedup %v", sim.Speedup())
	}
}

func TestHyperclusterEndToEnd(t *testing.T) {
	g, _ := BuildModel("squeezenet", ModelConfig{ImageSize: 16})
	prog, _ := Compile(g)
	for _, switched := range []bool{false, true} {
		hp, err := prog.Hypercluster(3, switched)
		if err != nil {
			t.Fatal(err)
		}
		feeds := RandomInputs(hp.Graph, 9)
		want, err := RunSequentialGraph(hp.Graph, feeds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := hp.NewSession().Run(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		for k, w := range want {
			if !got[k].Equal(w) {
				t.Errorf("switched=%v output %s differs", switched, k)
			}
		}
	}
}

// TestHyperclusteredMetricsAndSimulate: a hyperclustered program carries no
// clustering, so its cost analyses must fall back to the compile-time
// model instead of dereferencing one.
func TestHyperclusteredMetricsAndSimulate(t *testing.T) {
	g, _ := BuildModel("squeezenet", ModelConfig{ImageSize: 16})
	prog, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := prog.Hypercluster(2, false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := hp.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes <= len(prog.Graph.Nodes) || m.Parallelism < 1 {
		t.Errorf("hyperclustered metrics %+v over %d batch-1 nodes", m, len(prog.Graph.Nodes))
	}
	sim, err := hp.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if sim.Makespan <= 0 {
		t.Errorf("hyperclustered makespan %v", sim.Makespan)
	}
}

func TestSaveLoadModelThroughFacade(t *testing.T) {
	g, _ := BuildModel("squeezenet", ModelConfig{ImageSize: 16})
	path := filepath.Join(t.TempDir(), "sq.json.gz")
	if err := SaveModel(g, path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Nodes) != len(g.Nodes) {
		t.Error("node count changed through save/load")
	}
}

func TestQueuesRuntime(t *testing.T) {
	q := NewQueues(2)
	tns := Scalar(7)
	done := make(chan *Tensor)
	go func() { done <- q.Recv("v", 1) }()
	q.Send("v", 1, tns)
	if got := <-done; got != tns {
		t.Error("Recv returned wrong tensor")
	}
	q.Publish("out", tns)
	pub := q.Published()
	if pub["out"] != tns {
		t.Error("Publish/Published mismatch")
	}
	// Published returns a copy.
	delete(pub, "out")
	if q.Published()["out"] != tns {
		t.Error("Published exposed internal map")
	}
}

// Scalar helper for the runtime test (mirrors tensor.Scalar through the
// public alias).
func Scalar(v float32) *Tensor {
	t := ZerosTensor(1)
	t.Data()[0] = v
	return t
}

func TestCallDispatch(t *testing.T) {
	x := ZerosTensor(3)
	x.Data()[0], x.Data()[1], x.Data()[2] = -1, 0, 2
	out, err := Call("Relu", []*Tensor{x}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Data()[0] != 0 || out[0].Data()[2] != 2 {
		t.Errorf("Call(Relu) = %v", out[0].Data())
	}
	if _, err := Call("Bogus", []*Tensor{x}, nil); err == nil {
		t.Error("unknown op accepted")
	}
	ops := SupportedOps()
	if len(ops) < 30 {
		t.Errorf("only %d supported ops", len(ops))
	}
}

func TestSyntheticEnvRunsGeneratedStyle(t *testing.T) {
	env := SyntheticEnv("squeezenet")
	if len(env) == 0 {
		t.Fatal("empty synthetic env")
	}
	if env["input"] == nil {
		t.Error("no input feed in synthetic env")
	}
}

func TestGenerateGoFromFacade(t *testing.T) {
	g, _ := BuildModel("squeezenet", ModelConfig{ImageSize: 16})
	prog, _ := Compile(g)
	src, err := prog.GenerateGo(CodegenOptions{EmitMain: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"func cluster0(", "func runSequential(", "ramiel.Call("} {
		if !strings.Contains(src, frag) {
			t.Errorf("generated source missing %q", frag)
		}
	}
}

func TestModelNames(t *testing.T) {
	names := ModelNames()
	if len(names) != 8 {
		t.Errorf("ModelNames = %v", names)
	}
	if _, err := BuildModel("not_a_model", ModelConfig{}); err == nil {
		t.Error("unknown model accepted")
	}
}

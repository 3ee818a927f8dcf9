package models

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/tensor"
)

func TestAllModelsBuildAndValidate(t *testing.T) {
	for _, name := range TableOrder {
		name := name
		t.Run(name, func(t *testing.T) {
			g := MustBuild(name, Config{})
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(g.Inputs) == 0 || len(g.Outputs) == 0 {
				t.Error("missing graph inputs/outputs")
			}
		})
	}
}

func TestNodeCountsInPaperRegime(t *testing.T) {
	// Table I: node counts must land in the same regime as the paper's
	// ONNX exports (tolerance: ±30%, see DESIGN.md's experiment index).
	for _, name := range TableOrder {
		g := MustBuild(name, Config{})
		ref := PaperRefs[name]
		lo := int(float64(ref.Nodes) * 0.65)
		hi := int(float64(ref.Nodes) * 1.35)
		if n := len(g.Nodes); n < lo || n > hi {
			t.Errorf("%s: %d nodes, paper %d (allowed %d..%d)", name, n, ref.Nodes, lo, hi)
		}
	}
}

func TestParallelismFactorsTrackPaper(t *testing.T) {
	// The ordering that drives every conclusion: Squeezenet < 1 <
	// mid-range conv nets < NASNet.
	m := cost.DefaultModel()
	get := func(name string) float64 {
		g := MustBuild(name, Config{})
		met, err := cost.ComputeMetrics(g, m)
		if err != nil {
			t.Fatal(err)
		}
		return met.Parallelism
	}
	sq := get("squeezenet")
	if sq >= 1 {
		t.Errorf("squeezenet parallelism %v, want < 1 (paper 0.86)", sq)
	}
	nas := get("nasnet")
	if nas < 2 {
		t.Errorf("nasnet parallelism %v, want > 2 (paper 3.7)", nas)
	}
	for _, mid := range []string{"googlenet", "inception_v3", "inception_v4", "retinanet", "bert"} {
		p := get(mid)
		if p < 1 || p > 2 {
			t.Errorf("%s parallelism %v, want in (1, 2)", mid, p)
		}
		if p <= sq || p >= nas {
			t.Errorf("%s parallelism %v breaks ordering squeezenet(%v) < mid < nasnet(%v)", mid, p, sq, nas)
		}
	}
}

func TestModelsExecuteAtTinyScale(t *testing.T) {
	// Every model must actually run end to end on the real tensor engine.
	for _, name := range TableOrder {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := Config{ImageSize: 16}
			g := MustBuild(name, cfg)
			feeds := RandomInputs(g, 11)
			out, err := exec.RunSequential(g, feeds)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range g.Outputs {
				tn := out[o.Name]
				if tn == nil || tn.Numel() == 0 {
					t.Fatalf("output %s empty", o.Name)
				}
				for _, v := range tn.Data() {
					if v != v {
						t.Fatalf("output %s contains NaN", o.Name)
					}
				}
			}
		})
	}
}

func TestDeterministicWeights(t *testing.T) {
	a := MustBuild("squeezenet", Config{Seed: 9})
	b := MustBuild("squeezenet", Config{Seed: 9})
	for name, ta := range a.Initializers {
		tb, ok := b.Initializers[name]
		if !ok || !ta.Equal(tb) {
			t.Fatalf("weights for %s differ across identical builds", name)
		}
	}
	c := MustBuild("squeezenet", Config{Seed: 10})
	diff := false
	for name, ta := range a.Initializers {
		if tc, ok := c.Initializers[name]; ok && !ta.Equal(tc) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical weights")
	}
}

func TestBatchConfig(t *testing.T) {
	g := MustBuild("googlenet", Config{Batch: 2, ImageSize: 16})
	if g.Inputs[0].Shape[0] != 2 {
		t.Errorf("batch dim = %d", g.Inputs[0].Shape[0])
	}
	feeds := RandomInputs(g, 3)
	if _, err := exec.RunSequential(g, feeds); err != nil {
		t.Fatal(err)
	}
}

func TestBuildUnknownModel(t *testing.T) {
	if _, err := Build("alexnet", Config{}); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestNamesAndOrder(t *testing.T) {
	if len(Names()) != len(TableOrder) {
		t.Errorf("Names() has %d entries, TableOrder %d", len(Names()), len(TableOrder))
	}
	for _, name := range TableOrder {
		if _, ok := PaperRefs[name]; !ok {
			t.Errorf("no PaperRef for %s", name)
		}
		if _, ok := zoo[name]; !ok {
			t.Errorf("no builder for %s", name)
		}
	}
}

func TestRandomInputsBertIDs(t *testing.T) {
	g := MustBuild("bert", Config{})
	feeds := RandomInputs(g, 5)
	ids := feeds["input_ids"]
	if ids == nil {
		t.Fatal("no input_ids feed")
	}
	vocab := float32(defaultBertDims().vocab)
	for _, v := range ids.Data() {
		if v < 0 || v >= vocab || v != float32(int(v)) {
			t.Fatalf("invalid token id %v", v)
		}
	}
}

func TestConstantBearingModels(t *testing.T) {
	// Yolo/BERT/NASNet must contain Constant nodes (the DCE story);
	// Squeezenet/GoogleNet/Inception must not (Section V-C).
	hasConst := func(name string) bool {
		g := MustBuild(name, Config{})
		for _, n := range g.Nodes {
			if n.OpType == "Constant" {
				return true
			}
		}
		return false
	}
	for _, name := range []string{"yolo_v5", "bert", "nasnet"} {
		if !hasConst(name) {
			t.Errorf("%s has no Constant nodes", name)
		}
	}
	for _, name := range []string{"squeezenet", "googlenet", "inception_v3", "inception_v4"} {
		if hasConst(name) {
			t.Errorf("%s unexpectedly has Constant nodes", name)
		}
	}
}

func TestYoloSizeRounding(t *testing.T) {
	g := MustBuild("yolo_v5", Config{ImageSize: 40})
	if s := g.Inputs[0].Shape[2]; s%32 != 0 {
		t.Errorf("yolo input size %d not multiple of 32", s)
	}
	feeds := RandomInputs(g, 2)
	if _, err := exec.RunSequential(g, feeds); err != nil {
		t.Fatal(err)
	}
}

func TestFireModuleShape(t *testing.T) {
	b := newBuilder("t", Config{}.withDefaults())
	x := b.input("input", 1, 8, 8, 8)
	out := b.fire(x, 4, 8)
	if !out.shape.Equal(tensor.Shape{1, 16, 8, 8}) {
		t.Errorf("fire output shape %v", out.shape)
	}
	b.output(out)
	g := b.finish()
	if len(g.Nodes) != 7 { // squeeze conv+relu, 2x expand conv+relu, concat
		t.Errorf("fire module has %d nodes, want 7", len(g.Nodes))
	}
}

func TestGeluDecomposition(t *testing.T) {
	b := newBuilder("t", Config{}.withDefaults())
	x := b.input("input", 2, 4)
	out := b.gelu(x)
	b.output(out)
	g := b.finish()
	feeds := exec.Env{"input": tensor.New(tensor.Shape{2, 4},
		[]float32{-3, -1, -0.5, 0, 0.5, 1, 2, 3})}
	res, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	y := res[g.Outputs[0].Name]
	// GELU(0)=0, GELU(x)≈x for large x, ≈0 for very negative x.
	if y.Data()[3] != 0 {
		t.Errorf("gelu(0) = %v", y.Data()[3])
	}
	if d := y.Data()[7] - 3; d > 0.01 || d < -0.01 {
		t.Errorf("gelu(3) = %v, want ≈3", y.Data()[7])
	}
	if y.Data()[0] > 0.01 || y.Data()[0] < -0.01 {
		t.Errorf("gelu(-3) = %v, want ≈0", y.Data()[0])
	}
}

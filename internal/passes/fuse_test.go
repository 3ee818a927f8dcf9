package passes

import (
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// convBNReluGraph builds the canonical Conv→BN→Relu triple with non-trivial
// BN statistics (the zoo builder's BN uses mean 0 / var 1, which would hide
// scaling mistakes).
func convBNReluGraph() *graph.Graph {
	g := graph.New("cbr")
	r := tensor.NewRNG(4)
	g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{1, 4, 8, 8}}}
	g.AddInitializer("w", r.RandTensor(8, 4, 3, 3))
	g.AddInitializer("cb", r.RandTensor(8))
	g.AddInitializer("s", r.RandTensor(8))
	g.AddInitializer("b", r.RandTensor(8))
	g.AddInitializer("m", r.RandTensor(8))
	variance := r.RandTensor(8)
	for i, v := range variance.Data() {
		variance.Data()[i] = 0.5 + v*v // strictly positive, non-unit
	}
	g.AddInitializer("v", variance)
	g.AddNode("conv", "Conv", []string{"x", "w", "cb"}, []string{"t1"},
		ops.Attrs{"pads": []int{1, 1, 1, 1}})
	g.AddNode("bn", "BatchNormalization", []string{"t1", "s", "b", "m", "v"}, []string{"t2"}, nil)
	g.AddNode("relu", "Relu", []string{"t2"}, []string{"out"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	g.Reindex()
	return g
}

func feedsFor(g *graph.Graph, seed uint64) exec.Env {
	return models.RandomInputs(g, seed)
}

func TestFuseConvBNReluToOneNode(t *testing.T) {
	g := convBNReluGraph()
	feeds := feedsFor(g, 1)
	want, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	wTensor := g.Initializers["w"] // may be dropped from the map by DCE
	wOrig := wTensor.Clone()

	rep, err := Fuse(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BNFolded != 1 || rep.Epilogues != 1 {
		t.Fatalf("report %+v, want 1 BN fold + 1 epilogue", rep)
	}
	if len(g.Nodes) != 1 {
		t.Fatalf("Conv→BN→Relu fused to %d nodes, want 1", len(g.Nodes))
	}
	n := g.Nodes[0]
	if n.OpType != "Conv" || n.Attrs.Str(ops.AttrEpilogueOp, "") != "Relu" {
		t.Fatalf("surviving node %s(%s) attrs %v", n.Name, n.OpType, n.Attrs)
	}
	got, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if !got["out"].AllClose(want["out"], 1e-5, 1e-6) {
		t.Fatalf("fused output diverges: max diff %v", got["out"].MaxAbsDiff(want["out"]))
	}
	// Folding must not mutate the original (possibly shared) weight tensor.
	if !wTensor.Equal(wOrig) {
		t.Fatal("BN folding mutated the shared weight initializer in place")
	}
}

// TestFoldBatchNormChain folds Conv→BN→BN→Relu to one Conv: the pass
// rebuilds its index only at the end, so the second BN must still find the
// Conv as its producer once the first has folded into it.
func TestFoldBatchNormChain(t *testing.T) {
	g := convBNReluGraph()
	bn := g.NodeByName("bn")
	bn.Outputs[0] = "t1b"
	g.AddNode("bn2", "BatchNormalization", []string{"t1b", "s", "m", "b", "v"}, []string{"t2"}, nil)
	feeds := feedsFor(g, 3)
	want, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Fuse(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BNFolded != 2 || rep.Epilogues != 1 || len(g.Nodes) != 1 {
		t.Fatalf("report %+v and %d nodes, want 2 BN folds, 1 epilogue, 1 node", rep, len(g.Nodes))
	}
	got, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if !got["out"].AllClose(want["out"], 1e-5, 1e-6) {
		t.Fatalf("fused output diverges: max diff %v", got["out"].MaxAbsDiff(want["out"]))
	}
}

func TestFoldBatchNormIntoGemm(t *testing.T) {
	r := tensor.NewRNG(7)
	for _, tc := range []struct {
		name   string
		transB int
		bias   *tensor.Tensor
		beta   float64
	}{
		{"plain-rowbias", 0, r.RandTensor(6), 1},
		{"transB", 1, r.RandTensor(6), 1},
		{"no-bias", 0, nil, 1},
		{"scalar-bias-beta2", 0, tensor.Scalar(0.7), 2},
		{"full-bias", 0, r.RandTensor(3, 6), 1},
	} {
		g := graph.New("gemmbn")
		g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{3, 5}}}
		if tc.transB != 0 {
			g.AddInitializer("w", r.RandTensor(6, 5))
		} else {
			g.AddInitializer("w", r.RandTensor(5, 6))
		}
		attrs := ops.Attrs{"transB": tc.transB, "beta": tc.beta}
		inputs := []string{"x", "w"}
		if tc.bias != nil {
			g.AddInitializer("c", tc.bias)
			inputs = append(inputs, "c")
		}
		g.AddNode("fc", "Gemm", inputs, []string{"t1"}, attrs)
		g.AddInitializer("s", r.RandTensor(6))
		g.AddInitializer("b", r.RandTensor(6))
		g.AddInitializer("m", r.RandTensor(6))
		v := r.RandTensor(6)
		for i, e := range v.Data() {
			v.Data()[i] = 0.5 + e*e
		}
		g.AddInitializer("v", v)
		g.AddNode("bn", "BatchNormalization", []string{"t1", "s", "b", "m", "v"}, []string{"out"}, nil)
		g.Outputs = []graph.ValueInfo{{Name: "out"}}
		g.Reindex()

		feeds := feedsFor(g, 2)
		want, err := exec.RunSequential(g, feeds)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		n, err := FoldBatchNorms(g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n != 1 {
			t.Fatalf("%s: folded %d, want 1", tc.name, n)
		}
		got, err := exec.RunSequential(g, feeds)
		if err != nil {
			t.Fatalf("%s after fold: %v", tc.name, err)
		}
		if !got["out"].AllClose(want["out"], 1e-5, 1e-6) {
			t.Errorf("%s: folded Gemm diverges: max diff %v", tc.name, got["out"].MaxAbsDiff(want["out"]))
		}
	}
}

// TestFuseRefusesMultiConsumer: a BN (or activation) whose input value has
// a second consumer must survive — the value is needed elsewhere.
func TestFuseRefusesMultiConsumer(t *testing.T) {
	g := convBNReluGraph()
	// Tap the conv output with a second consumer.
	g.AddNode("tap", "Sigmoid", []string{"t1"}, []string{"tapped"}, nil)
	g.Outputs = append(g.Outputs, graph.ValueInfo{Name: "tapped"})
	g.Reindex()
	feeds := feedsFor(g, 3)
	want, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Fuse(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BNFolded != 0 {
		t.Errorf("BN folded across a multi-consumer conv output: %+v", rep)
	}
	if g.NodeByName("bn") == nil {
		t.Error("BN node removed despite multi-consumer input")
	}
	got, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if !got[k].AllClose(w, 1e-5, 1e-6) {
			t.Errorf("output %s changed", k)
		}
	}
}

// TestFuseRefusesFeedableParams: initializers that are also declared graph
// inputs can be overridden per request; folding them would bake one
// request's value into the weights.
func TestFuseRefusesFeedableParams(t *testing.T) {
	g := convBNReluGraph()
	// BN scale is feedable.
	g.Inputs = append(g.Inputs, graph.ValueInfo{Name: "s", Shape: tensor.Shape{8}})
	g.Reindex()
	if n, err := FoldBatchNorms(g); err != nil || n != 0 {
		t.Errorf("folded %d BNs with a feedable scale (err %v), want 0", n, err)
	}

	// Conv weight is feedable.
	g2 := convBNReluGraph()
	g2.Inputs = append(g2.Inputs, graph.ValueInfo{Name: "w", Shape: tensor.Shape{8, 4, 3, 3}})
	g2.Reindex()
	if n, err := FoldBatchNorms(g2); err != nil || n != 0 {
		t.Errorf("folded %d BNs with a feedable weight (err %v), want 0", n, err)
	}
}

// TestFuseRefusesGraphOutputIntermediate: a Conv output that is itself a
// graph output cannot be renamed away by epilogue absorption or BN folding.
func TestFuseRefusesGraphOutputIntermediate(t *testing.T) {
	g := convBNReluGraph()
	g.Outputs = append(g.Outputs, graph.ValueInfo{Name: "t1"})
	g.Reindex()
	rep, err := Fuse(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BNFolded != 0 {
		t.Errorf("folded through a graph-output intermediate: %+v", rep)
	}
}

// TestChainRefusesShapeChangingOp: a Reshape between elementwise nodes must
// break the chain.
func TestChainRefusesShapeChangingOp(t *testing.T) {
	g := graph.New("resh")
	g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{2, 6}}}
	g.AddInitializer("shape", tensor.FromSlice([]float32{3, 4}))
	g.AddNode("r1", "Relu", []string{"x"}, []string{"v1"}, nil)
	g.AddNode("rs", "Reshape", []string{"v1", "shape"}, []string{"v2"}, nil)
	g.AddNode("r2", "Sigmoid", []string{"v2"}, []string{"out"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	g.Reindex()
	chains, nodes, err := FuseElementwise(g)
	if err != nil {
		t.Fatal(err)
	}
	if chains != 0 || nodes != 0 {
		t.Errorf("fused across a Reshape: %d chains / %d nodes", chains, nodes)
	}
	if len(g.Nodes) != 3 {
		t.Errorf("node count changed: %d", len(g.Nodes))
	}
}

// TestChainStopsAtMultiConsumerIntermediate: the chain may end at a value
// with several consumers but must not swallow it.
func TestChainStopsAtMultiConsumerIntermediate(t *testing.T) {
	g := graph.New("fan")
	g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{4}}}
	g.AddNode("a", "Relu", []string{"x"}, []string{"v1"}, nil)
	g.AddNode("b", "Sigmoid", []string{"v1"}, []string{"v2"}, nil)
	g.AddNode("c1", "Tanh", []string{"v2"}, []string{"o1"}, nil)
	g.AddNode("c2", "Relu", []string{"v2"}, []string{"o2"}, nil)
	g.AddNode("j", "Add", []string{"o1", "o2"}, []string{"out"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	g.Reindex()
	feeds := exec.Env{"x": tensor.FromSlice([]float32{-2, -1, 1, 2})}
	want, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	chains, nodes, err := FuseElementwise(g)
	if err != nil {
		t.Fatal(err)
	}
	// Relu→Sigmoid fuses (and Tanh→Add makes a second chain); v2, with two
	// consumers, must stay a produced value rather than be swallowed.
	if chains != 2 || nodes != 4 {
		t.Fatalf("chains=%d nodes=%d, want 2 chains of 2", chains, nodes)
	}
	if g.Producer("v2") == nil {
		t.Fatal("multi-consumer intermediate v2 was swallowed")
	}
	got, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if !got["out"].AllClose(want["out"], 1e-6, 1e-7) {
		t.Error("fan-out fusion changed the output")
	}
}

// TestChainGelu: the erf-GELU decomposition's tail (Add, Mul, Mul with a
// shared non-constant operand) fuses and matches, exercising extras that
// reference values outside the chain, including the chain head's own input.
func TestChainGelu(t *testing.T) {
	g := graph.New("gelu")
	g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{3, 5}}}
	g.AddInitializer("sqrt2", tensor.Scalar(1.4142135))
	g.AddInitializer("one", tensor.Scalar(1))
	g.AddInitializer("half", tensor.Scalar(0.5))
	g.AddNode("d", "Div", []string{"x", "sqrt2"}, []string{"v1"}, nil)
	g.AddNode("e", "Erf", []string{"v1"}, []string{"v2"}, nil)
	g.AddNode("a", "Add", []string{"v2", "one"}, []string{"v3"}, nil)
	g.AddNode("m1", "Mul", []string{"x", "v3"}, []string{"v4"}, nil)
	g.AddNode("m2", "Mul", []string{"v4", "half"}, []string{"out"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	g.Reindex()
	feeds := feedsFor(g, 5)
	want, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	chains, nodes, err := FuseElementwise(g)
	if err != nil {
		t.Fatal(err)
	}
	if chains == 0 || nodes < 3 {
		t.Fatalf("GELU tail did not fuse: chains=%d nodes=%d", chains, nodes)
	}
	got, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if !got["out"].AllClose(want["out"], 1e-6, 1e-7) {
		t.Errorf("fused GELU diverges: max diff %v", got["out"].MaxAbsDiff(want["out"]))
	}
}

// TestFusedEquivalenceAllModels is the acceptance gate: fused vs unfused
// outputs agree within 1e-5 on every bundled model.
func TestFusedEquivalenceAllModels(t *testing.T) {
	for _, name := range models.Names() {
		g := models.MustBuild(name, models.Config{ImageSize: 32})
		feeds := models.RandomInputs(g, 11)
		want, err := exec.RunSequential(g, feeds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before := len(g.Nodes)
		rep, err := Fuse(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Any() {
			t.Errorf("%s: fusion found nothing to do", name)
		}
		if len(g.Nodes) != before-rep.NodesRemoved() {
			t.Errorf("%s: node count %d, want %d", name, len(g.Nodes), before-rep.NodesRemoved())
		}
		got, err := exec.RunSequential(g, feeds)
		if err != nil {
			t.Fatalf("%s after fuse: %v", name, err)
		}
		for k, w := range want {
			if !got[k].AllClose(w, 1e-5, 1e-5) {
				t.Errorf("%s: fused output %s diverges (max diff %v)", name, k, got[k].MaxAbsDiff(w))
			}
		}
	}
}

func TestFuseConvRelu(t *testing.T) {
	g := models.MustBuild("squeezenet", models.Config{ImageSize: 16})
	feeds := models.RandomInputs(g, 3)
	want, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	before := len(g.Nodes)
	rep, err := Fuse(g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epilogues == 0 {
		t.Fatal("no Conv+Relu pairs fused in squeezenet")
	}
	if len(g.Nodes) != before-rep.NodesRemoved() {
		t.Errorf("node count %d, want %d", len(g.Nodes), before-rep.NodesRemoved())
	}
	got, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if !got[k].AllClose(w, 1e-5, 1e-6) {
			t.Errorf("fusion changed output %s", k)
		}
	}
}

func TestFuseSkipsFanout(t *testing.T) {
	// A conv whose output feeds two relus must not absorb an epilogue (the
	// value is needed twice).
	g := graph.New("fan")
	g.Inputs = []graph.ValueInfo{{Name: "x"}}
	g.AddNode("c", "Conv", []string{"x", "w"}, []string{"vc"}, nil)
	g.AddInitializer("w", tensor.Zeros(1, 1, 1, 1))
	g.AddNode("r1", "Relu", []string{"vc"}, []string{"v1"}, nil)
	g.AddNode("r2", "Relu", []string{"vc"}, []string{"v2"}, nil)
	g.AddNode("j", "Add", []string{"v1", "v2"}, []string{"out"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	n, err := AttachEpilogues(g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("fused across fan-out: %d epilogues", n)
	}
}

// elementwiseInputs lists every op of the ops package's elementwise table
// with its input count as a node.
var elementwiseInputs = map[string]int{
	"Relu": 1, "LeakyRelu": 1, "Sigmoid": 1, "Tanh": 1, "Clip": 1, "Exp": 1,
	"Sqrt": 1, "Erf": 1, "Neg": 1, "Identity": 1,
	"Add": 2, "Sub": 2, "Mul": 2, "Div": 2, "Pow": 2,
}

// TestChainFlagDecidesFusion: for every elementwise op, a two-node chain
// with Relu, either way round, fuses exactly when ops.FusedStageInputs says
// the op may be a stage (and takes as many inputs as the op), and the fused graph computes what the unfused one did,
// bit for bit, on random inputs.
func TestChainFlagDecidesFusion(t *testing.T) {
	for _, op := range ops.Names() {
		arity, listed := elementwiseInputs[op]
		switch k := ops.FusedStageInputs(op); {
		case k > 0 && !listed:
			t.Errorf("chainable op %s is missing from elementwiseInputs", op)
		case k > 0 && k != arity:
			t.Errorf("%s: FusedStageInputs = %d, the op takes %d", op, k, arity)
		}
	}
	for op, arity := range elementwiseInputs {
		chainable := ops.FusedStageInputs(op) > 0
		for _, opFirst := range []bool{false, true} {
			g := graph.New("pair")
			g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{3, 5}}, {Name: "y", Shape: tensor.Shape{3, 5}}}
			opIn, reluIn, opOut, reluOut := "v", "x", "out", "v"
			if opFirst {
				opIn, reluIn, opOut, reluOut = "x", "v", "v", "out"
			}
			in := []string{opIn}
			if arity == 2 {
				in = append(in, "y")
			}
			g.AddNode("op", op, in, []string{opOut}, nil)
			g.AddNode("relu", "Relu", []string{reluIn}, []string{reluOut}, nil)
			g.Outputs = []graph.ValueInfo{{Name: "out"}}
			g.Reindex()
			feeds := feedsFor(g, 9)
			want, err := exec.RunSequential(g, feeds)
			if err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			chains, nodes, err := FuseElementwise(g)
			if err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			if fused := chains == 1 && nodes == 2 && len(g.Nodes) == 1; fused != chainable {
				t.Errorf("%s first=%v: fused=%v (%d chains, %d nodes), chainable=%v", op, opFirst, fused, chains, nodes, chainable)
			}
			got, err := exec.RunSequential(g, feeds)
			if err != nil {
				t.Fatalf("%s fused: %v", op, err)
			}
			w, gd := want["out"].Data(), got["out"].Data()
			for i := range w {
				if math.Float32bits(w[i]) != math.Float32bits(gd[i]) && !(w[i] != w[i] && gd[i] != gd[i]) {
					t.Errorf("%s first=%v: fused [%d] = %v, unfused %v", op, opFirst, i, gd[i], w[i])
					break
				}
			}
		}
	}
}

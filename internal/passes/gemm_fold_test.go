package passes

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// sameBits reports whether two runs' outputs agree bit for bit.
func sameBits(a, b exec.Env) error {
	for name, want := range a {
		got := b[name]
		if got == nil || !got.Shape().Equal(want.Shape()) {
			return fmt.Errorf("output %s: shape %v, want %v", name, got, want.Shape())
		}
		for i, w := range want.Data() {
			if v := got.Data()[i]; math.Float32bits(v) != math.Float32bits(w) {
				return fmt.Errorf("output %s: element %d is %v, want %v", name, i, v, w)
			}
		}
	}
	return nil
}

// foldGEMMs runs the two MatMul rewrites and returns what they removed.
func foldGEMMs(t *testing.T, g *graph.Graph) (biases, views int) {
	t.Helper()
	biases, err := FoldBiases(g)
	if err != nil {
		t.Fatal(err)
	}
	if views, err = FoldViews(g); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return biases, views
}

// opCounts counts g's nodes per op type.
func opCounts(g *graph.Graph) map[string]int {
	c := map[string]int{}
	for _, n := range g.Nodes {
		c[n.OpType]++
	}
	return c
}

// TestFoldGEMMsBERT pins what the bias and view rewrites do to pruned BERT:
// every bias Add and every head split and merge goes, the reference
// interpreter's outputs do not change by a bit, and the whole Fuse leaves
// 201 of 357 nodes.
func TestFoldGEMMsBERT(t *testing.T) {
	pruned := func() *graph.Graph {
		g := models.MustBuild("bert", models.Config{})
		if _, err := Prune(g); err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := pruned()
	feeds := models.RandomInputs(g, 3)
	want, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if biases, views := foldGEMMs(t, g); biases != 72 || views != 108 {
		t.Fatalf("folded %d biases and %d view nodes, want 72 and 108", biases, views)
	}
	got, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(want, got); err != nil {
		t.Fatalf("folded BERT: %v", err)
	}

	// Fuse without the two rewrites leaves 357 nodes, with them 201.
	g = pruned()
	if _, err := FoldBatchNorms(g); err != nil {
		t.Fatal(err)
	}
	if _, err := AttachEpilogues(g); err != nil {
		t.Fatal(err)
	}
	if _, _, err := FuseElementwise(g); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 357 {
		t.Fatalf("BERT fused without the MatMul rewrites has %d nodes, want 357", len(g.Nodes))
	}
	g = pruned()
	if _, err := Fuse(g); err != nil {
		t.Fatal(err)
	}
	c := opCounts(g)
	if len(g.Nodes) != 201 || c["Transpose"] != 0 || c["Reshape"] != 14 || c["Add"] != 25 || c["FusedElementwise"] != 24 {
		t.Fatalf("fused BERT has %d nodes %v, want 201 with 0 Transpose, 14 Reshape, 25 Add, 24 FusedElementwise", len(g.Nodes), c)
	}
}

// TestFoldGEMMsRandom builds random projection → head split → MatMul →
// head merge graphs, x·W + b → Reshape → Transpose → MatMul → Transpose →
// Reshape, with the cases the rewrites must refuse mixed in: a feedable
// bias, an [M,N] bias, a Transpose with a second consumer and perms the
// GEMM core cannot address. Each rewrite must fold exactly what qualifies,
// and the reference interpreter's outputs must not change by a bit.
func TestFoldGEMMsRandom(t *testing.T) {
	pick := rand.New(rand.NewSource(5))
	perm4 := func() []int { return pick.Perm(4) }
	for c := 0; c < 300; c++ {
		b, s, h, d, e := 1+pick.Intn(2), 1+pick.Intn(4), 1+pick.Intn(3), 1+pick.Intn(4), 1+pick.Intn(4)
		hid := h * d
		r := tensor.NewRNG(uint64(c))
		g := graph.New("fold")
		g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{b, s, hid}}}
		g.AddInitializer("w", r.RandTensor(hid, hid))
		wantBias := 1
		switch kind := pick.Intn(4); kind {
		case 0:
			g.AddInitializer("bias", r.RandTensor(hid))
		case 1:
			g.AddInitializer("bias", r.RandTensor(1, hid))
		case 2: // feedable: not a constant
			g.AddInitializer("bias", r.RandTensor(hid))
			g.Inputs = append(g.Inputs, graph.ValueInfo{Name: "bias", Shape: tensor.Shape{hid}})
			wantBias = 0
		case 3: // [M,N]: folds only when M is 1
			g.AddInitializer("bias", r.RandTensor(s, hid))
			if s != 1 {
				wantBias = 0
			}
		}
		g.AddInitializer("dims", tensor.FromSlice([]float32{float32(b), float32(s), float32(h), float32(d)}))
		g.AddNode("proj", "MatMul", []string{"x", "w"}, []string{"p"}, nil)
		g.AddNode("addb", "Add", []string{"p", "bias"}, []string{"pb"}, nil)
		g.AddNode("split", "Reshape", []string{"pb", "dims"}, []string{"r"}, nil)
		perm := perm4()
		g.AddNode("heads", "Transpose", []string{"r"}, []string{"t"}, ops.Attrs{"perm": perm})
		tShape := tensor.Shape{b, s, h, d}
		ts := make(tensor.Shape, 4)
		for i, p := range perm {
			ts[i] = tShape[p]
		}
		shared := pick.Intn(4) == 0
		if shared { // the Transpose's output has a second consumer
			g.AddNode("side", "Relu", []string{"t"}, []string{"side"}, nil)
			g.Outputs = append(g.Outputs, graph.ValueInfo{Name: "side"})
		}
		slot := pick.Intn(2)
		var zs tensor.Shape
		if slot == ops.ViewA {
			g.Inputs = append(g.Inputs, graph.ValueInfo{Name: "y", Shape: tensor.Shape{ts[0], ts[1], ts[3], e}})
			g.AddNode("mm", "MatMul", []string{"t", "y"}, []string{"z"}, nil)
			zs = tensor.Shape{ts[0], ts[1], ts[2], e}
		} else {
			g.Inputs = append(g.Inputs, graph.ValueInfo{Name: "y", Shape: tensor.Shape{ts[0], ts[1], e, ts[2]}})
			g.AddNode("mm", "MatMul", []string{"y", "t"}, []string{"z"}, nil)
			zs = tensor.Shape{ts[0], ts[1], e, ts[3]}
		}
		operm := perm4()
		g.AddNode("merge", "Transpose", []string{"z"}, []string{"zt"}, ops.Attrs{"perm": operm})
		g.AddNode("flat", "Reshape", []string{"zt"}, []string{"out"},
			ops.Attrs{"shape": []int{0, zs[operm[1]], -1}})
		g.Outputs = append(g.Outputs, graph.ValueInfo{Name: "out"})
		g.Reindex()

		wantViews := 0
		if !shared && ops.GemmAddressable(slot, perm) {
			wantViews += 2
		}
		if ops.GemmAddressable(ops.ViewY, operm) {
			wantViews += 2
		}
		where := fmt.Sprintf("case %d: perm %v slot %d shared %v operm %v", c, perm, slot, shared, operm)
		feeds := models.RandomInputs(g, uint64(c))
		want, err := exec.RunSequential(g, feeds)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if biases, views := foldGEMMs(t, g); biases != wantBias || views != wantViews {
			t.Fatalf("%s: folded %d biases and %d view nodes, want %d and %d", where, biases, views, wantBias, wantViews)
		}
		got, err := exec.RunSequential(g, feeds)
		if err != nil {
			t.Fatalf("%s after folding: %v", where, err)
		}
		if err := sameBits(want, got); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}
}

// TestFoldBiasesRefusesWideningBias: an N-element bias that does not
// broadcast along the last axis only, an [N,1] column or a rank above the
// weight's, changes the Add's value or shape, so it stays a separate Add.
func TestFoldBiasesRefusesWideningBias(t *testing.T) {
	for _, bs := range []tensor.Shape{{3, 1}, {1, 1, 3}} {
		r := tensor.NewRNG(2)
		g := graph.New("bias")
		g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{3, 3}}}
		g.AddInitializer("w", r.RandTensor(3, 3))
		g.AddInitializer("b", r.RandTensor(bs...))
		g.AddNode("mm", "MatMul", []string{"x", "w"}, []string{"p"}, nil)
		g.AddNode("add", "Add", []string{"p", "b"}, []string{"out"}, nil)
		g.Outputs = []graph.ValueInfo{{Name: "out"}}
		g.Reindex()
		feeds := models.RandomInputs(g, 1)
		want, err := exec.RunSequential(g, feeds)
		if err != nil {
			t.Fatal(err)
		}
		if biases, _ := foldGEMMs(t, g); biases != 0 {
			t.Fatalf("bias %v: folded", bs)
		}
		got, err := exec.RunSequential(g, feeds)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(want, got); err != nil {
			t.Fatalf("bias %v: %v", bs, err)
		}
	}
}

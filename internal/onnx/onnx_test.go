package onnx

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/models"
	"repro/internal/passes"
	"repro/internal/tensor"
)

func TestRoundTripSqueezenet(t *testing.T) {
	g := models.MustBuild("squeezenet", models.Config{ImageSize: 16})
	m := FromGraph(g)
	data, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := m2.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Nodes) != len(g.Nodes) {
		t.Fatalf("round trip changed node count %d → %d", len(g.Nodes), len(g2.Nodes))
	}
	if len(g2.Initializers) != len(g.Initializers) {
		t.Fatalf("round trip changed initializer count")
	}
	// Semantics preserved: same outputs on same inputs.
	feeds := models.RandomInputs(g, 4)
	want, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.RunSequential(g2, feeds)
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if !got[k].Equal(w) {
			t.Errorf("output %s differs after round trip", k)
		}
	}
}

func TestRoundTripAttrsSurviveJSON(t *testing.T) {
	// JSON turns ints into float64; the Attrs accessors must still work.
	g := models.MustBuild("googlenet", models.Config{ImageSize: 16})
	data, err := Marshal(FromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := m.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g2.Nodes {
		if n.OpType == "Conv" {
			ks := n.Attrs.Ints("kernel_shape", nil)
			if len(ks) != 2 {
				t.Fatalf("kernel_shape lost in round trip: %v", n.Attrs)
			}
			return
		}
	}
	t.Fatal("no Conv found")
}

func TestSaveLoadFilePlainAndGzip(t *testing.T) {
	g := models.MustBuild("squeezenet", models.Config{ImageSize: 16})
	dir := t.TempDir()
	for _, name := range []string{"model.json", "model.json.gz"} {
		path := filepath.Join(dir, name)
		if err := SaveGraph(g, path); err != nil {
			t.Fatal(err)
		}
		g2, err := LoadGraph(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(g2.Nodes) != len(g.Nodes) {
			t.Errorf("%s: node count changed", name)
		}
	}
	// Gzip should be smaller.
	plain, _ := os.Stat(filepath.Join(dir, "model.json"))
	gz, _ := os.Stat(filepath.Join(dir, "model.json.gz"))
	if gz.Size() >= plain.Size() {
		t.Errorf("gzip (%d) not smaller than plain (%d)", gz.Size(), plain.Size())
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/model.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("{not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestToGraphRejectsBadInitializer(t *testing.T) {
	m := &Model{Graph: GraphProto{
		Name:        "bad",
		Initializer: []TensorData{{Name: "w", Dims: []int{2, 2}, Data: []float32{1}}},
	}}
	if _, err := m.ToGraph(); err == nil || !strings.Contains(err.Error(), "initializer") {
		t.Errorf("bad initializer not rejected: %v", err)
	}
}

// overflowModel is a model whose one initializer claims 2^62 x 4 values
// and carries none: tensor.Shape.Numel wraps that count to 0, which once let
// the model load and then crash constant folding and the executor.
const overflowModel = `{"ir_version":8,"producer_name":"fuzz","graph":{"name":"overflow",` +
	`"node":[{"name":"split","op_type":"Split","input":["w"],"output":["a","b"],"attribute":{"axis":0}}],` +
	`"initializer":[{"name":"w","dims":[4611686018427387904,4],"float_data":[]}],` +
	`"input":[],"output":[{"name":"a"},{"name":"b"}]}}`

// tinyModel is the smallest valid model: one Relu over a declared input.
const tinyModel = `{"ir_version":8,"producer_name":"fuzz","graph":{"name":"tiny",` +
	`"node":[{"name":"r","op_type":"Relu","input":["x"],"output":["y"]}],` +
	`"input":[{"name":"x","dims":[1,2]}],"output":[{"name":"y","dims":[1,2]}]}}`

// splitModel splits a [6,2] initializer on axis 0 into three outputs, with
// no "split" attribute: ONNX then makes one equal part per output.
const splitModel = `{"ir_version":8,"producer_name":"test","graph":{"name":"split3",` +
	`"node":[{"name":"split","op_type":"Split","input":["w"],"output":["a","b","c"],"attribute":{"axis":0}}],` +
	`"initializer":[{"name":"w","dims":[6,2],"float_data":[0,1,2,3,4,5,6,7,8,9,10,11]}],` +
	`"input":[],"output":[{"name":"a"},{"name":"b"},{"name":"c"}]}}`

func TestSplitWithoutSizesMakesOnePartPerOutput(t *testing.T) {
	for _, c := range []struct{ name, model string }{
		{"outputs", splitModel},
		{"num_outputs", strings.Replace(splitModel, `{"axis":0}`, `{"axis":0,"num_outputs":3}`, 1)},
	} {
		m, err := Unmarshal([]byte(c.model))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		before := len(m.Graph.Nodes[0].Attribute)
		g, err := m.ToGraph()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(m.Graph.Nodes[0].Attribute) != before {
			t.Errorf("%s: ToGraph changed the model's attributes", c.name)
		}
		out, err := exec.RunSequential(g, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, name := range []string{"a", "b", "c"} {
			got := out[name]
			want := []float32{float32(4 * i), float32(4*i + 1), float32(4*i + 2), float32(4*i + 3)}
			if got == nil || !got.Shape().Equal(tensor.Shape{2, 2}) || !slices.Equal(got.Data(), want) {
				t.Errorf("%s: output %s = %v, want [2 2] %v", c.name, name, got, want)
			}
		}
	}
}

// poolModel max-pools a [1,1,4,4] graph input with a 2x2 window and no
// "strides" attribute; ONNX then strides by 1.
const poolModel = `{"ir_version":8,"producer_name":"test","graph":{"name":"pool",` +
	`"node":[{"name":"pool","op_type":"MaxPool","input":["x"],"output":["y"],"attribute":{"kernel_shape":[2,2]}}],` +
	`"input":[{"name":"x","dims":[1,1,4,4]}],"output":[{"name":"y"}]}}`

// convModel convolves the same input with a constant 2x2 filter.
const convModel = `{"ir_version":8,"producer_name":"test","graph":{"name":"conv",` +
	`"node":[{"name":"conv","op_type":"Conv","input":["x","w"],"output":["y"],"attribute":{"kernel_shape":[2,2]}}],` +
	`"initializer":[{"name":"w","dims":[1,1,2,2],"float_data":[1,0,0,1]}],` +
	`"input":[{"name":"x","dims":[1,1,4,4]}],"output":[{"name":"y"}]}}`

func TestMaxPoolWithoutStridesStridesByOne(t *testing.T) {
	x := tensor.New(tensor.Shape{1, 1, 4, 4}, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	for _, c := range []struct{ name, model, err string }{
		{"default", poolModel, ""},
		{"ceil_mode", strings.Replace(poolModel, `[2,2]}`, `[2,2],"ceil_mode":1}`, 1), "ceil_mode"},
		{"dilations", strings.Replace(poolModel, `[2,2]}`, `[2,2],"dilations":[2,2]}`, 1), "dilations"},
		{"auto_pad", strings.Replace(poolModel, `[2,2]}`, `[2,2],"auto_pad":"SAME_UPPER"}`, 1), "auto_pad"},
		{"Conv dilations", strings.Replace(convModel, `[2,2]}`, `[2,2],"dilations":[2,2]}`, 1), "dilations"},
	} {
		m, err := Unmarshal([]byte(c.model))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g, err := m.ToGraph()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out, err := exec.RunSequential(g, exec.Env{"x": x})
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: error %v, want one naming %s", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := []float32{6, 7, 8, 10, 11, 12, 14, 15, 16}
		if got := out["y"]; got == nil || !got.Shape().Equal(tensor.Shape{1, 1, 3, 3}) || !slices.Equal(got.Data(), want) {
			t.Errorf("%s: y = %v, want [1 1 3 3] %v", c.name, got, want)
		}
	}
}

func TestToGraphRejectsImpossibleDims(t *testing.T) {
	for _, c := range []struct{ name, model, value string }{
		{"overflow", overflowModel, "w"},
		{"negative initializer", strings.Replace(overflowModel, "4611686018427387904", "-1", 1), "w"},
		{"negative input", strings.Replace(tinyModel, `"x","dims":[1,2]`, `"x","dims":[-1,2]`, 1), "x"},
		{"overflow output", strings.Replace(tinyModel, `"y","dims":[1,2]`, `"y","dims":[3037000500,3037000500]`, 1), "y"},
	} {
		m, err := Unmarshal([]byte(c.model))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, err = m.ToGraph()
		if err == nil {
			t.Errorf("%s: model accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), `"`+c.value+`"`) {
			t.Errorf("%s: error does not name the value: %v", c.name, err)
		}
	}
	m, err := Unmarshal([]byte(tinyModel))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ToGraph(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

// FuzzModelToGraph feeds arbitrary bytes through Unmarshal and ToGraph: the
// loader must never panic, and a graph it accepts holds only initializers
// whose shapes match their data.
func FuzzModelToGraph(f *testing.F) {
	f.Add([]byte(overflowModel))
	f.Add([]byte(tinyModel))
	f.Add([]byte(splitModel))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		g, err := m.ToGraph()
		if err != nil {
			return
		}
		for name, init := range g.Initializers {
			if n := init.Numel(); n < 0 || n != len(init.Data()) {
				t.Fatalf("initializer %q: %d elements for %d values", name, n, len(init.Data()))
			}
		}
	})
}

func TestToGraphValidates(t *testing.T) {
	m := &Model{Graph: GraphProto{
		Name: "invalid",
		Nodes: []NodeProto{
			{Name: "a", OpType: "Relu", Input: []string{"ghost"}, Output: []string{"va"}},
		},
		Output: []ValueProto{{Name: "va"}},
	}}
	if _, err := m.ToGraph(); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestFromGraphDeterministicOrder(t *testing.T) {
	g := models.MustBuild("squeezenet", models.Config{ImageSize: 16})
	a, err := Marshal(FromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(FromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("serialization not deterministic")
	}
}

func TestModelMetadata(t *testing.T) {
	g := models.MustBuild("squeezenet", models.Config{ImageSize: 16})
	m := FromGraph(g)
	if m.IRVersion != CurrentIRVersion || m.ProducerName != "ramiel-go" {
		t.Errorf("metadata: %+v", m)
	}
	if m.Graph.Name != "squeezenet" {
		t.Errorf("graph name %q", m.Graph.Name)
	}
}

// TestRoundTripFusedGraph pins that the fusion pass's node encodings —
// FusedElementwise stage attrs ([]int / []float32 / "|"-joined string) and
// writeback-epilogue attrs — survive the JSON round trip: the reloaded
// graph must execute to the same outputs.
func TestRoundTripFusedGraph(t *testing.T) {
	g := models.MustBuild("yolo_v5", models.Config{ImageSize: 16})
	if _, err := passes.Fuse(g); err != nil {
		t.Fatal(err)
	}
	feeds := models.RandomInputs(g, 5)
	want, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	fused := 0
	for _, n := range g.Nodes {
		if n.OpType == "FusedElementwise" {
			fused++
		}
	}
	if fused == 0 {
		t.Fatal("fusion produced no FusedElementwise nodes in yolo_v5")
	}

	data, err := Marshal(FromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := m2.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.RunSequential(g2, feeds)
	if err != nil {
		t.Fatalf("reloaded fused graph failed to run: %v", err)
	}
	for k, w := range want {
		if !got[k].AllClose(w, 1e-6, 1e-7) {
			t.Errorf("output %s diverges after round trip", k)
		}
	}
}

// TestRoundTripCompiledBERT saves and reloads pruned and fused BERT, whose
// MatMuls carry a bias input and operand and output views: the reloaded
// graph must run to bit-identical outputs, and fusing it again must find
// nothing left to do.
func TestRoundTripCompiledBERT(t *testing.T) {
	g := models.MustBuild("bert", models.Config{})
	if _, err := passes.Prune(g); err != nil {
		t.Fatal(err)
	}
	if _, err := passes.Fuse(g); err != nil {
		t.Fatal(err)
	}
	feeds := models.RandomInputs(g, 9)
	want, err := exec.RunSequential(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bert.onnx.json")
	if err := SaveGraph(g, path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.RunSequential(g2, feeds)
	if err != nil {
		t.Fatalf("reloaded BERT failed to run: %v", err)
	}
	for k, w := range want {
		if !slices.EqualFunc(got[k].Data(), w.Data(), func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
			t.Errorf("output %s differs after the round trip", k)
		}
	}
	if rep, err := passes.Fuse(g2); err != nil || rep.Any() {
		t.Errorf("fusing the reloaded graph again: %+v, %v", rep, err)
	}
	if len(g2.Nodes) != len(g.Nodes) {
		t.Errorf("reloaded graph has %d nodes, want %d", len(g2.Nodes), len(g.Nodes))
	}
}

// Package onnx implements a self-contained ONNX-subset model format. The
// paper ingests ONNX protobuf models from public zoos; this offline
// reproduction serializes the same information — graph topology, operator
// attributes, initializer tensors, graph inputs/outputs — as JSON, and
// converts it to and from the internal graph representation. The format is
// deliberately close to ONNX's GraphProto so real models map onto it
// field-for-field.
package onnx

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"strings"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Model is the top-level container, mirroring ONNX ModelProto.
type Model struct {
	IRVersion    int        `json:"ir_version"`
	ProducerName string     `json:"producer_name"`
	Graph        GraphProto `json:"graph"`
}

// GraphProto mirrors ONNX GraphProto.
type GraphProto struct {
	Name        string       `json:"name"`
	Nodes       []NodeProto  `json:"node"`
	Initializer []TensorData `json:"initializer,omitempty"`
	Input       []ValueProto `json:"input"`
	Output      []ValueProto `json:"output"`
}

// NodeProto mirrors ONNX NodeProto.
type NodeProto struct {
	Name      string         `json:"name"`
	OpType    string         `json:"op_type"`
	Input     []string       `json:"input"`
	Output    []string       `json:"output"`
	Attribute map[string]any `json:"attribute,omitempty"`
}

// ValueProto names a graph input/output with an optional shape.
type ValueProto struct {
	Name string `json:"name"`
	Dims []int  `json:"dims,omitempty"`
}

// TensorData is a named constant tensor.
type TensorData struct {
	Name string    `json:"name"`
	Dims []int     `json:"dims"`
	Data []float32 `json:"float_data"`
}

// CurrentIRVersion is stamped into models this package writes.
const CurrentIRVersion = 8

// FromGraph converts an internal graph into a serializable Model.
func FromGraph(g *graph.Graph) *Model {
	m := &Model{
		IRVersion:    CurrentIRVersion,
		ProducerName: "ramiel-go",
		Graph: GraphProto{
			Name: g.Name,
		},
	}
	for _, n := range g.Nodes {
		m.Graph.Nodes = append(m.Graph.Nodes, NodeProto{
			Name:      n.Name,
			OpType:    n.OpType,
			Input:     append([]string(nil), n.Inputs...),
			Output:    append([]string(nil), n.Outputs...),
			Attribute: n.Attrs,
		})
	}
	for _, in := range g.Inputs {
		m.Graph.Input = append(m.Graph.Input, ValueProto{Name: in.Name, Dims: in.Shape})
	}
	for _, out := range g.Outputs {
		m.Graph.Output = append(m.Graph.Output, ValueProto{Name: out.Name, Dims: out.Shape})
	}
	// Deterministic initializer order: follow first-use order over nodes.
	emitted := map[string]bool{}
	emit := func(name string) {
		t, ok := g.Initializers[name]
		if !ok || emitted[name] {
			return
		}
		emitted[name] = true
		m.Graph.Initializer = append(m.Graph.Initializer, TensorData{
			Name: name,
			Dims: t.Shape(),
			Data: t.Data(),
		})
	}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			emit(in)
		}
	}
	for name := range g.Initializers {
		emit(name)
	}
	return m
}

// ToGraph converts a deserialized Model back into the internal graph
// representation and validates it.
func (m *Model) ToGraph() (*graph.Graph, error) {
	g := graph.New(m.Graph.Name)
	for _, in := range m.Graph.Input {
		if err := checkDims("input", in.Name, in.Dims); err != nil {
			return nil, err
		}
		g.Inputs = append(g.Inputs, graph.ValueInfo{Name: in.Name, Shape: tensor.NewShape(in.Dims...)})
	}
	for _, out := range m.Graph.Output {
		if err := checkDims("output", out.Name, out.Dims); err != nil {
			return nil, err
		}
		g.Outputs = append(g.Outputs, graph.ValueInfo{Name: out.Name, Shape: tensor.NewShape(out.Dims...)})
	}
	for _, init := range m.Graph.Initializer {
		if err := checkDims("initializer", init.Name, init.Dims); err != nil {
			return nil, err
		}
		sh := tensor.NewShape(init.Dims...)
		if sh.Numel() != len(init.Data) {
			return nil, fmt.Errorf("onnx: initializer %q has %d values for shape %v", init.Name, len(init.Data), sh)
		}
		data := make([]float32, len(init.Data))
		copy(data, init.Data)
		g.AddInitializer(init.Name, tensor.New(sh, data))
	}
	for _, np := range m.Graph.Nodes {
		g.AddNode(np.Name, np.OpType, np.Input, np.Output, nodeAttrs(np))
	}
	g.Reindex()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("onnx: model %q invalid: %w", m.Graph.Name, err)
	}
	return g, nil
}

// nodeAttrs returns a node's attributes in the form the kernels read. An
// ONNX Split without a "split" attribute divides its input into as many
// equal parts as it has outputs (opset 18 names that count
// "num_outputs"); the Split kernel reads the count from "num".
func nodeAttrs(np NodeProto) ops.Attrs {
	attrs := ops.Attrs(np.Attribute)
	if np.OpType != "Split" || attrs["split"] != nil || attrs["num"] != nil {
		return attrs
	}
	c := ops.Attrs{"num": len(np.Output)}
	if n, ok := attrs["num_outputs"]; ok {
		c["num"] = n
	}
	maps.Copy(c, attrs)
	return c
}

// checkDims rejects dims that no tensor can have: a negative extent, or
// nonzero extents whose product overflows int (tensor.Shape.Numel would
// wrap, and kernels would size loops and buffers from it).
func checkDims(kind, name string, dims []int) error {
	n := 1
	for _, d := range dims {
		switch {
		case d < 0:
			return fmt.Errorf("onnx: %s %q has negative extent in dims %v", kind, name, dims)
		case d > 0 && n > math.MaxInt/d:
			return fmt.Errorf("onnx: %s %q has dims %v whose element count overflows int", kind, name, dims)
		case d > 0:
			n *= d
		}
	}
	return nil
}

// Marshal serializes the model as JSON.
func Marshal(m *Model) ([]byte, error) {
	return json.Marshal(m)
}

// Unmarshal parses a JSON model.
func Unmarshal(data []byte) (*Model, error) {
	var m Model
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("onnx: decode: %w", err)
	}
	return &m, nil
}

// Save writes the model to path. A ".gz" suffix enables gzip compression,
// which matters for weight-bearing models.
func Save(m *Model, path string) error {
	data, err := Marshal(m)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".gz") {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(data); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		data = buf.Bytes()
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a model from path, transparently decompressing ".gz" files.
func Load(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("onnx: gunzip %s: %w", path, err)
		}
		data, err = io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("onnx: gunzip %s: %w", path, err)
		}
	}
	return Unmarshal(data)
}

// LoadGraph is the common Load+ToGraph composition.
func LoadGraph(path string) (*graph.Graph, error) {
	m, err := Load(path)
	if err != nil {
		return nil, err
	}
	return m.ToGraph()
}

// SaveGraph is the common FromGraph+Save composition.
func SaveGraph(g *graph.Graph, path string) error {
	return Save(FromGraph(g), path)
}

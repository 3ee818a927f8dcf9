package models

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Builder constructs one evaluation model.
type Builder func(Config) *graph.Graph

// zoo maps model names to builders, in the order of the paper's Table I.
var zoo = map[string]Builder{
	"squeezenet":   Squeezenet,
	"googlenet":    Googlenet,
	"inception_v3": InceptionV3,
	"inception_v4": InceptionV4,
	"yolo_v5":      YoloV5,
	"retinanet":    Retinanet,
	"bert":         BERT,
	"nasnet":       NASNet,
}

// TableOrder lists the models in the paper's Table I row order.
var TableOrder = []string{
	"squeezenet", "googlenet", "inception_v3", "inception_v4",
	"yolo_v5", "retinanet", "bert", "nasnet",
}

// PaperRef records the paper's published numbers for one model, used by
// the benchmark harness (internal/bench; see DESIGN.md's experiment index)
// to print paper-vs-measured rows.
type PaperRef struct {
	Nodes          int     // Table I
	NodeCost       float64 // Table I (weighted)
	CPCost         float64 // Table I (weighted)
	Parallelism    float64 // Table I
	ClustersPreMrg int     // Table II
	ClustersPost   int     // Table II
	ClustersDCE    int     // Table III (0 = model not listed)
	SpeedupLC      float64 // Table IV
	SpeedupDCE     float64 // Table VI (0 = not listed)
	SpeedupOverall float64 // Table VII
}

// PaperRefs holds the published evaluation numbers per model.
var PaperRefs = map[string]PaperRef{
	"squeezenet":   {66, 187, 218, 0.86, 9, 2, 0, 0.83, 0, 0.95},
	"googlenet":    {153, 373, 264, 1.4, 30, 4, 0, 1.2, 0, 1.33},
	"inception_v3": {238, 1136, 829, 1.37, 38, 6, 0, 1.32, 0, 1.42},
	"inception_v4": {339, 1763, 1334, 1.32, 55, 6, 0, 1.44, 0, 1.55},
	"yolo_v5":      {280, 730, 619, 1.18, 29, 12, 9, 0.96, 1.06, 1.06},
	"retinanet":    {450, 1291, 1102, 1.2, 16, 10, 0, 1.3, 0, 1.4},
	"bert":         {963, 21357, 16870, 1.27, 76, 5, 3, 1.07, 1.15, 1.18},
	"nasnet":       {1426, 8147, 2187, 3.7, 244, 67, 9, 1.7, 1.91, 1.91},
}

// Build constructs the named model or returns an error listing valid names.
func Build(name string, cfg Config) (*graph.Graph, error) {
	b, ok := zoo[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown model %q (have %v)", name, Names())
	}
	return b(cfg), nil
}

// MustBuild is Build for static names; it panics on unknown models.
func MustBuild(name string, cfg Config) *graph.Graph {
	g, err := Build(name, cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Names returns the registered model names, sorted.
func Names() []string {
	out := make([]string, 0, len(zoo))
	for n := range zoo {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RandomInputs generates a deterministic, valid input binding for every
// graph input: standard-normal activations for image tensors, and integer
// token ids in [0, vocab) for BERT-style "input_ids".
func RandomInputs(g *graph.Graph, seed uint64) map[string]*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	feeds := make(map[string]*tensor.Tensor, len(g.Inputs))
	for _, in := range g.Inputs {
		t := tensor.Zeros(in.Shape...)
		if in.Name == "input_ids" {
			d := t.Data()
			vocab := defaultBertDims().vocab
			for i := range d {
				d[i] = float32(rng.Intn(vocab))
			}
		} else {
			rng.FillNormal(t, 0, 1)
		}
		feeds[in.Name] = t
	}
	return feeds
}

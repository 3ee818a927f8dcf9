package exec

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// MeasuredModel is a cost.Model whose node costs are real measured kernel
// durations (in microseconds) from executing the graph on this machine.
//
// The paper's runtime tables were produced on a 12-core Xeon; when the
// reproduction host lacks multiple cores (or to get load-independent
// numbers anywhere), the discrete-event simulator replays these measured
// costs on a simulated k-core machine. This keeps "who wins by how much"
// grounded in genuine kernel performance instead of static weights.
type MeasuredModel struct {
	// ByName maps node names to measured duration in microseconds.
	ByName map[string]float64
	// Edge is the fixed per-message overhead in microseconds charged on
	// cross-cluster dependences (the queue handoff plus scheduler wake).
	Edge float64
	// BytesPerMicro, when > 0, adds a size-dependent term: a message
	// carrying B bytes costs Edge + B/BytesPerMicro microseconds. The
	// paper's Python process queues pickle tensors, so shipping a large
	// activation map costs far more than a BERT-sized vector; this is what
	// makes Squeezenet's big cross-cluster maps a net loss (Table IV row 1)
	// while BERT's small ones stay cheap.
	BytesPerMicro float64
	// OutBytes maps node names to the byte size of their first output,
	// recorded during measurement.
	OutBytes map[string]float64
	// ValueNumel maps every produced value name to its element count,
	// recorded during measurement — the sizes input the memory planner's
	// Estimate wants, at no extra execution.
	ValueNumel map[string]int
	// ScratchNumel maps node names to the transient kernel scratch (im2col
	// patch matrices, call-time GEMM packing) the node draws from the
	// run's allocator, in elements — the memory planner's scratch-sizing
	// input (memplan.Plan.EstimateWithScratch).
	ScratchNumel map[string]int
	// Default covers nodes not measured (e.g. clones added after
	// measurement): microseconds.
	Default float64
}

// NodeCost implements cost.Model.
func (m *MeasuredModel) NodeCost(n *graph.Node) float64 {
	if d, ok := m.ByName[n.Name]; ok {
		return d
	}
	return m.Default
}

// EdgeCost implements cost.Model: the fixed message overhead. Size-aware
// callers (the simulator) use EdgeCostBetween instead.
func (m *MeasuredModel) EdgeCost() float64 { return m.Edge }

// EdgeCostBetween implements cost.EdgeCoster: fixed overhead plus the
// serialization cost of the producer's output tensor.
func (m *MeasuredModel) EdgeCostBetween(pred, _ *graph.Node) float64 {
	c := m.Edge
	if m.BytesPerMicro > 0 {
		if b, ok := m.OutBytes[pred.Name]; ok {
			c += b / m.BytesPerMicro
		}
	}
	return c
}

// TotalMicros sums all measured node durations — the modelled sequential
// execution time.
func (m *MeasuredModel) TotalMicros() float64 {
	var t float64
	for _, d := range m.ByName {
		t += d
	}
	return t
}

// MeasureCosts executes the graph sequentially `reps` times with the given
// feeds, timing every node, and returns the per-node median-of-means model.
// edgeMicros sets the modelled message overhead; pass <= 0 for the default
// 3µs (measured Go channel handoff incl. scheduler wake is ~1µs; the
// paper's Python process queues cost far more, so 3µs is conservative in
// Ramiel's favor being the faster runtime).
func MeasureCosts(g *graph.Graph, feeds Env, reps int, edgeMicros float64) (*MeasuredModel, error) {
	return MeasureCostsCtx(context.Background(), g, feeds, reps, edgeMicros)
}

// MeasureCostsCtx is MeasureCosts under a context: a measurement sweep over
// a large model is many full sequential executions, so interactive callers
// (or a serving daemon profiling in the background) can abort it between
// kernels. Cancellation surfaces as the bare ctx error.
func MeasureCostsCtx(ctx context.Context, g *graph.Graph, feeds Env, reps int, edgeMicros float64) (*MeasuredModel, error) {
	if reps < 1 {
		reps = 1
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	acc := make(map[string]float64, len(order))
	numel := make(map[string]int, len(order))
	scratch := make(map[string]int)
	for r := 0; r < reps; r++ {
		env, err := seedEnv(g, feeds)
		if err != nil {
			return nil, err
		}
		for _, n := range order {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if r == 0 {
				if s := nodeScratch(n, env); s > 0 {
					scratch[n.Name] = s
				}
			}
			t0 := time.Now()
			if err := evalNode(n, env); err != nil {
				return nil, fmt.Errorf("exec: measuring %s: %w", n.Name, err)
			}
			acc[n.Name] += float64(time.Since(t0)) / float64(time.Microsecond)
			if r == 0 {
				for _, out := range n.Outputs {
					if t := env[out]; t != nil {
						numel[out] = t.Numel()
					}
				}
			}
		}
	}
	// OutBytes is a per-node view of the same measurements: the first
	// output's size, derived from numel so the two maps cannot diverge.
	outBytes := make(map[string]float64, len(order))
	for _, n := range order {
		if len(n.Outputs) > 0 {
			if e, ok := numel[n.Outputs[0]]; ok {
				outBytes[n.Name] = float64(4 * e)
			}
		}
	}
	byName := make(map[string]float64, len(acc))
	var sum float64
	for name, total := range acc {
		d := total / float64(reps)
		if d < 0.05 {
			d = 0.05 // floor: even a no-op dispatch costs something
		}
		byName[name] = d
		sum += d
	}
	if edgeMicros <= 0 {
		edgeMicros = 3
	}
	def := 1.0
	if len(byName) > 0 {
		def = sum / float64(len(byName))
	}
	return &MeasuredModel{ByName: byName, Edge: edgeMicros, OutBytes: outBytes,
		ValueNumel: numel, ScratchNumel: scratch, Default: def}, nil
}

// nodeScratch sizes one node's kernel scratch from its bound inputs.
func nodeScratch(n *graph.Node, env Env) int {
	in := make([]*tensor.Tensor, len(n.Inputs))
	for i, name := range n.Inputs {
		t, ok := env[name]
		if !ok {
			return 0
		}
		in[i] = t
	}
	return ops.ScratchElems(n.OpType, n.Attrs, in)
}

// PaperEquivalentQueues configures m to model the paper's Python
// multiprocessing queues: a fixed wake-up overhead plus pickle-rate
// serialization of the shipped tensor (~150 bytes/µs).
func (m *MeasuredModel) PaperEquivalentQueues() *MeasuredModel {
	m.Edge = 20
	m.BytesPerMicro = 150
	return m
}

// IntraOpConfig models downstream intra-operator parallelism for the
// simulator (Table V): heavy kernels scale by Amdahl's law with parallel
// fraction Frac across Threads workers, and when lanes*Threads exceeds
// Cores the whole machine slows by the oversubscription ratio.
type IntraOpConfig struct {
	// Threads is the intra-op thread count (OMP_NUM_THREADS analogue).
	Threads int
	// Cores is the simulated machine's core count.
	Cores int
	// Frac is the parallelizable fraction of heavy kernels (default 0.85).
	Frac float64
}

// scaledModel wraps a base model applying intra-op scaling.
type scaledModel struct {
	base  *MeasuredModel
	edge  float64
	conf  IntraOpConfig
	over  float64
	heavy func(*graph.Node) bool
}

func (s *scaledModel) NodeCost(n *graph.Node) float64 {
	c := s.base.NodeCost(n)
	if s.conf.Threads > 1 && s.heavy(n) {
		f := s.conf.Frac
		t := float64(s.conf.Threads)
		c = c * ((1 - f) + f/t)
	}
	return c * s.over
}

func (s *scaledModel) EdgeCost() float64 { return s.edge * s.over }

// EdgeCostBetween forwards the base model's size-aware message cost,
// scaled by the oversubscription factor.
func (s *scaledModel) EdgeCostBetween(pred, succ *graph.Node) float64 {
	return s.base.EdgeCostBetween(pred, succ) * s.over
}

// WithIntraOp derives a model that scales heavy-op costs by intra-op
// parallelism and applies an oversubscription penalty when lanes*threads
// exceeds the simulated core count.
func WithIntraOp(m *MeasuredModel, conf IntraOpConfig, lanes int) cost.Model {
	if conf.Threads < 1 {
		conf.Threads = 1
	}
	if conf.Cores < 1 {
		conf.Cores = 12
	}
	if conf.Frac <= 0 || conf.Frac > 1 {
		conf.Frac = 0.85
	}
	over := 1.0
	demand := lanes * conf.Threads
	if demand > conf.Cores {
		over = float64(demand) / float64(conf.Cores)
	}
	return &scaledModel{
		base: m,
		edge: m.Edge,
		conf: conf,
		over: over,
		heavy: func(n *graph.Node) bool {
			switch n.OpType {
			case "Conv", "MatMul", "Gemm", "MaxPool", "AveragePool", "BatchNormalization":
				return true
			}
			return false
		},
	}
}

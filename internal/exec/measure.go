package exec

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// MeasuredModel is a cost.Model whose node costs are real measured kernel
// durations (in microseconds) from executing the graph on this machine —
// the cost input of the IOS scheduler and of profile-guided recompilation —
// plus the value and scratch sizes the memory planner's estimate needs.
type MeasuredModel struct {
	// ByName maps node names to measured duration in microseconds.
	ByName map[string]float64
	// Edge is the fixed per-message overhead in microseconds charged on
	// cross-cluster dependences (the queue handoff plus scheduler wake).
	Edge float64
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

// EdgeCost implements cost.Model: the fixed message overhead.
func (m *MeasuredModel) EdgeCost() float64 { return m.Edge }

// handoffMicros is a measured model's per-message overhead: a Go channel
// hand-off including the scheduler wake measures about 1µs, so 3µs is a
// conservative estimate.
const handoffMicros = 3

// MeasureCosts executes the graph sequentially `reps` times with the given
// feeds, timing every node, and returns the per-node median-of-means model.
func MeasureCosts(g *graph.Graph, feeds Env, reps int) (*MeasuredModel, error) {
	return MeasureCostsCtx(context.Background(), g, feeds, reps)
}

// MeasureCostsCtx is MeasureCosts under a context: a measurement sweep over
// a large model is many full sequential executions, so interactive callers
// (or a serving daemon profiling in the background) can abort it between
// kernels. Cancellation surfaces as the bare ctx error.
func MeasureCostsCtx(ctx context.Context, g *graph.Graph, feeds Env, reps int) (*MeasuredModel, error) {
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
	def := 1.0
	if len(byName) > 0 {
		def = sum / float64(len(byName))
	}
	return &MeasuredModel{ByName: byName, Edge: handoffMicros,
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

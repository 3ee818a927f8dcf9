// Package exec runs dataflow graphs: a sequential reference executor, the
// parallel executor that maps each cluster onto its own goroutine with
// buffered channels carrying cross-cluster tensor dependences (the Go
// equivalent of the paper's Python processes and message queues), and a
// deterministic discrete-event simulator driven by the static cost model
// for reproducible makespan comparisons.
package exec

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Env binds value names to tensors.
type Env map[string]*tensor.Tensor

// RunSequential executes the graph in topological order on the calling
// goroutine and returns the graph outputs. It is both the correctness
// reference for the parallel executor and the baseline for every speedup
// the paper reports.
func RunSequential(g *graph.Graph, feeds Env) (Env, error) {
	return RunSequentialCtx(context.Background(), g, feeds)
}

// RunSequentialCtx is RunSequential under a context: cancellation is
// observed between operator kernels, mirroring the parallel executor's
// cooperative unwind, and surfaces as the bare ctx error.
func RunSequentialCtx(ctx context.Context, g *graph.Graph, feeds Env) (Env, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	env, err := seedEnv(g, feeds)
	if err != nil {
		return nil, err
	}
	for _, n := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := evalNode(n, env); err != nil {
			return nil, err
		}
	}
	return collectOutputs(g, env)
}

// seedEnv builds the initial value environment from initializers + feeds.
func seedEnv(g *graph.Graph, feeds Env) (Env, error) {
	env := make(Env, len(g.Nodes)*2)
	for name, t := range g.Initializers {
		env[name] = t
	}
	for _, in := range g.Inputs {
		t, err := feedFor(in, feeds)
		if err != nil {
			return nil, err
		}
		env[in.Name] = t
	}
	return env, nil
}

// feedFor returns the feed for one graph input, checked against the
// declared shape.
func feedFor(in graph.ValueInfo, feeds Env) (*tensor.Tensor, error) {
	t, ok := feeds[in.Name]
	if !ok {
		return nil, fmt.Errorf("exec: missing feed for graph input %q", in.Name)
	}
	if in.Shape != nil && len(in.Shape) > 0 && !t.Shape().Equal(in.Shape) {
		return nil, fmt.Errorf("exec: feed %q has shape %v, graph declares %v", in.Name, t.Shape(), in.Shape)
	}
	return t, nil
}

// evalNode binds one node's kernel with no constants and runs it on the
// heap against env, storing its outputs: the name-keyed reference
// interpreter's step. An unknown op's binding fails when run, with the
// bind error.
func evalNode(n *graph.Node, env Env) error {
	inputs := make([]*tensor.Tensor, len(n.Inputs))
	for i, name := range n.Inputs {
		t, ok := env[name]
		if !ok {
			return fmt.Errorf("exec: node %s: input %q not available", n.Name, name)
		}
		inputs[i] = t
	}
	k, _ := ops.Bind(n.OpType, n.Attrs, nil)
	outs, err := runKernel(n, k, inputs, nil, false)
	if err != nil {
		return err
	}
	for i, name := range n.Outputs {
		env[name] = outs[i]
	}
	return nil
}

// runKernel runs one node's bound kernel on its inputs — the executors'
// one kernel call site. The allocator (nil = heap) reaches every kernel
// output allocation, so an arena-backed run recycles intermediate storage.
// inplace (arena runs only) means the memory plan proved the node's first
// input dies here: the kernel writes the output into the input's buffer,
// and the executor schedules no release for the input — its storage lives
// on as the output.
func runKernel(n *graph.Node, k *ops.Bound, inputs []*tensor.Tensor, a tensor.Allocator, inplace bool) ([]*tensor.Tensor, error) {
	outs, err := k.Run(inputs, a, inplace)
	if err != nil {
		return nil, fmt.Errorf("exec: node %s: %w", n.Name, err)
	}
	if len(outs) < len(n.Outputs) {
		return nil, fmt.Errorf("exec: node %s: kernel returned %d outputs, graph declares %d",
			n.Name, len(outs), len(n.Outputs))
	}
	return outs, nil
}

func collectOutputs(g *graph.Graph, env Env) (Env, error) {
	out := make(Env, len(g.Outputs))
	for _, o := range g.Outputs {
		t, ok := env[o.Name]
		if !ok {
			return nil, fmt.Errorf("exec: graph output %q was not produced", o.Name)
		}
		out[o.Name] = t
	}
	return out, nil
}

// Package memplan computes static memory plans for compiled parallel
// programs: given a plan's dataflow graph and cluster lanes, it derives the
// liveness of every intermediate tensor value (definition point, last
// consumer across all lanes), seeds the reference counts the executor uses
// to return dead intermediates to a run's arena, proves which nodes may
// write their output over their first input, and estimates the program's
// peak tensor memory. Buffer placement is the arena's: the plan assigns no
// offsets or reuse slots.
//
// The plan is the serving-runtime analogue of a TFLite-style arena planner,
// adapted to Ramiel's compile-once/serve-many contract (see internal/exec's
// Plan): it is computed once per compiled program and only read afterwards,
// so any number of concurrent runs can share it, each with its own arena
// and its own mutable copy of the reference counts.
//
// Soundness rests on two properties of the kernel layer (internal/ops):
// kernels never mutate their inputs, and every kernel output is freshly
// allocated storage — even shape-only ops like Reshape copy. Each managed
// value therefore owns its buffer exclusively, and the buffer is dead the
// moment the value's statically-known last use completes.
package memplan

import (
	"fmt"

	"repro/internal/graph"
)

// Unmanaged marks values the executor must never release: graph inputs,
// initializers, and graph outputs (which escape to the caller).
const Unmanaged = -1

// Interval is a value's live range in schedule positions (indexes into the
// global topological order used to build the plan): Def is the producing
// node's position, LastUse the position of the final consuming node. A
// value with no consumers has LastUse == Def (dead on arrival).
//
// In a parallel execution lanes overlap, so positions order events only
// per dependency chain; the executor's reference counts — not these
// positions — decide the actual release moment. The intervals drive the
// peak estimate.
type Interval struct {
	Def     int
	LastUse int
}

// Plan is the immutable static memory plan of one compiled program.
type Plan struct {
	// index maps each managed value name to its dense index in uses/live
	// order. Values absent here are unmanaged.
	index map[string]int
	// names is the inverse of index.
	names []string
	// uses[i] is the static use count of managed value i: the number of
	// node-input occurrences consuming it across all lanes. It seeds the
	// per-run reference counts.
	uses []int32
	// live[i] is the value's liveness interval.
	live []Interval
	// consumesIn0 names the nodes whose first input is provably dead the
	// moment the node completes (managed, exactly one consuming occurrence
	// globally — this node's), and that produce exactly one output. Such a
	// node may write its output into the input's buffer; the executor
	// combines this liveness proof with the node's bound kernel having an
	// in-place form (ops.Bound.InPlace) to run elementwise glue in place.
	consumesIn0 map[string]bool
}

// Build computes the memory plan for a graph partitioned into lanes. The
// lanes must cover the graph (as exec.NewPlan guarantees); they are used
// only to validate coverage — liveness is a property of the dataflow graph
// itself and holds for any dependency-respecting interleaving.
func Build(g *graph.Graph, lanes [][]*graph.Node) (*Plan, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("memplan: %w", err)
	}
	if lanes != nil {
		covered := 0
		for _, lane := range lanes {
			covered += len(lane)
		}
		if covered != len(g.Nodes) {
			return nil, fmt.Errorf("memplan: lanes cover %d nodes, graph has %d", covered, len(g.Nodes))
		}
	}

	pos := make(map[*graph.Node]int, len(order))
	for i, n := range order {
		pos[n] = i
	}

	p := &Plan{index: map[string]int{}}
	// Pass 1: enumerate managed values in definition order. A value is
	// managed when a node produces it and it is not a graph output.
	for _, n := range order {
		for _, out := range n.Outputs {
			if g.IsGraphOutput(out) {
				continue
			}
			if _, dup := p.index[out]; dup {
				return nil, fmt.Errorf("memplan: value %q produced twice", out)
			}
			p.index[out] = len(p.names)
			p.names = append(p.names, out)
			p.live = append(p.live, Interval{Def: pos[n], LastUse: pos[n]})
		}
	}
	p.uses = make([]int32, len(p.names))

	// Pass 2: count uses and find last uses. Duplicate input names on one
	// node (e.g. Add(x, x)) count once per occurrence, matching the
	// executor's one-decrement-per-occurrence discipline.
	for _, n := range order {
		for _, in := range n.Inputs {
			i, ok := p.index[in]
			if !ok {
				continue
			}
			p.uses[i]++
			if pos[n] > p.live[i].LastUse {
				p.live[i].LastUse = pos[n]
			}
		}
	}

	// Pass 3: in-place eligibility. A node may overwrite its first input
	// when that value is managed and this node's single consumption is the
	// value's only use anywhere (uses == 1 also rules out the value
	// appearing twice on this node, as in Add(x, x) — the kernel would
	// read elements it already overwrote).
	p.consumesIn0 = map[string]bool{}
	for _, n := range order {
		if len(n.Inputs) == 0 || len(n.Outputs) != 1 {
			continue
		}
		if i, ok := p.index[n.Inputs[0]]; ok && p.uses[i] == 1 {
			p.consumesIn0[n.Name] = true
		}
	}

	return p, nil
}

// CanWriteInPlace reports whether the named node may write its output into
// its first input's buffer: the input is a managed value whose only use
// anywhere is this node's single consumption of it, so the buffer is dead
// the instant the node completes and ownership can transfer to the output.
func (p *Plan) CanWriteInPlace(node string) bool { return p.consumesIn0[node] }

// IndexOf returns the dense managed-value index of a value, or Unmanaged.
func (p *Plan) IndexOf(value string) int {
	i, ok := p.index[value]
	if !ok {
		return Unmanaged
	}
	return i
}

// Managed returns the number of managed values.
func (p *Plan) Managed() int { return len(p.names) }

// InitialRefs returns a fresh copy of the per-value use counts, ready to
// be decremented by one run of the executor.
func (p *Plan) InitialRefs() []int32 {
	return append([]int32(nil), p.uses...)
}

// UseCount returns the static use count of a value (0 for unmanaged).
func (p *Plan) UseCount(value string) int {
	i, ok := p.index[value]
	if !ok {
		return 0
	}
	return int(p.uses[i])
}

// Estimate is a static memory forecast for one run, in bytes, computed
// from per-value element counts (4 bytes per element).
type Estimate struct {
	// PeakLiveBytes is the maximum total size of simultaneously-live
	// managed values over the schedule — the lower bound any allocator
	// needs.
	PeakLiveBytes int64
	// TotalBytes sums every managed value — what a run would allocate with
	// no reuse at all.
	TotalBytes int64
	// ScratchBytes is the largest transient kernel scratch any single node
	// draws from the run's allocator (im2col patch matrices, call-time
	// GEMM packing) — zero unless computed via EstimateWithScratch.
	// Scratch is taken and returned within one kernel invocation, so one
	// run needs at most this much extra per concurrently-executing lane on
	// top of PeakLiveBytes.
	ScratchBytes int64
}

// Estimate computes the forecast from per-value element counts (as
// recorded by exec.MeasureCosts in MeasuredModel.ValueNumel). Values
// missing from sizes count as zero.
func (p *Plan) Estimate(sizes map[string]int) Estimate {
	var e Estimate
	// Sweep positions: events ordered by Def; a value is live on [Def,
	// LastUse]. Peak via prefix sums over position deltas.
	type delta struct{ pos, bytes int64 }
	var deltas []delta
	for i, name := range p.names {
		b := 4 * int64(sizes[name])
		e.TotalBytes += b
		deltas = append(deltas, delta{int64(p.live[i].Def), b})
		deltas = append(deltas, delta{int64(p.live[i].LastUse) + 1, -b})
	}
	// Positions are small dense ints; accumulate per position.
	byPos := map[int64]int64{}
	maxPos := int64(0)
	for _, d := range deltas {
		byPos[d.pos] += d.bytes
		if d.pos > maxPos {
			maxPos = d.pos
		}
	}
	var cur int64
	for pos := int64(0); pos <= maxPos; pos++ {
		cur += byPos[pos]
		if cur > e.PeakLiveBytes {
			e.PeakLiveBytes = cur
		}
	}
	return e
}

// EstimateWithScratch is Estimate extended with kernel scratch sizing:
// scratch maps node names to the transient elements their kernels draw
// from the run's allocator (as recorded by exec.MeasureCosts in
// MeasuredModel.ScratchNumel, or exec's ops.ScratchElems directly). The
// im2col lowering of convolution made this term real: a serving arena must
// hold the patch matrix and packing panels alongside the live values.
func (p *Plan) EstimateWithScratch(sizes map[string]int, scratch map[string]int) Estimate {
	e := p.Estimate(sizes)
	for _, s := range scratch {
		if b := 4 * int64(s); b > e.ScratchBytes {
			e.ScratchBytes = b
		}
	}
	return e
}

// Summary is the compact report of a plan, for logs and CLIs.
type Summary struct {
	Managed int `json:"managed_values"`
	ZeroUse int `json:"zero_use_values"`
}

// Summary reports the plan's headline numbers.
func (p *Plan) Summary() Summary {
	s := Summary{Managed: len(p.names)}
	for _, u := range p.uses {
		if u == 0 {
			s.ZeroUse++
		}
	}
	return s
}

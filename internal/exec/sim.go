package exec

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/graph"
)

// Simulate computes the deterministic makespan of a plan under the static
// cost model: each lane is a core executing its nodes in order; a node
// starts when its lane is free AND all predecessors have finished (plus the
// model's edge overhead for cross-lane dependences). It prices a plan under
// the static model (Program.Simulate) and, under zero costs, is the progress
// check NewPlanOrdered uses to reject deadlocking lane orders.
func Simulate(p *Plan, m cost.Model) (SimResult, error) {
	laneOf := make(map[*graph.Node]int, len(p.Graph.Nodes))
	for i, lane := range p.Lanes {
		for _, n := range lane {
			laneOf[n] = i
		}
	}
	finish := make(map[*graph.Node]float64, len(p.Graph.Nodes))
	laneFree := make([]float64, len(p.Lanes))
	laneBusy := make([]float64, len(p.Lanes))

	// Lanes interleave: repeatedly pick, among each lane's next unexecuted
	// node, one whose predecessors all finished; greedy event loop.
	idx := make([]int, len(p.Lanes))
	remaining := len(p.Graph.Nodes)
	for remaining > 0 {
		progressed := false
		for li := range p.Lanes {
			for idx[li] < len(p.Lanes[li]) {
				n := p.Lanes[li][idx[li]]
				ready := true
				start := laneFree[li]
				for _, pred := range p.Graph.Predecessors(n) {
					f, done := finish[pred]
					if !done {
						ready = false
						break
					}
					arrival := f
					if laneOf[pred] != li {
						arrival += m.EdgeCost()
					}
					if arrival > start {
						start = arrival
					}
				}
				if !ready {
					break
				}
				d := m.NodeCost(n)
				finish[n] = start + d
				laneFree[li] = start + d
				laneBusy[li] += d
				idx[li]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			// Every lane waits on another lane's later node: name the nodes
			// the lanes are stuck at (up to four).
			var stuck []string
			for li, lane := range p.Lanes {
				if idx[li] < len(lane) && len(stuck) < 4 {
					stuck = append(stuck, lane[idx[li]].Name)
				}
			}
			return SimResult{}, fmt.Errorf("exec: lane order would deadlock at %v (%d nodes left)", stuck, remaining)
		}
	}
	var makespan float64
	for _, f := range laneFree {
		if f > makespan {
			makespan = f
		}
	}
	res := SimResult{Makespan: makespan, LaneBusy: laneBusy}
	for _, n := range p.Graph.Nodes {
		res.TotalWork += m.NodeCost(n)
	}
	return res, nil
}

// SimResult summarizes a simulated execution.
type SimResult struct {
	// Makespan is the simulated parallel finish time.
	Makespan float64
	// TotalWork is the sum of node costs — the sequential execution time.
	TotalWork float64
	// LaneBusy is per-lane busy time; Makespan - LaneBusy[i] is lane i's
	// idle + slack time.
	LaneBusy []float64
}

// Speedup is the simulated sequential/parallel ratio.
func (r SimResult) Speedup() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.TotalWork / r.Makespan
}

// SequentialPlan wraps the whole graph in a single lane (the generated
// "single core non-parallel version" the paper also emits).
func SequentialPlan(g *graph.Graph) (*Plan, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	return &Plan{Graph: g, Lanes: [][]*graph.Node{order}}, nil
}

// zeroCost prices every node and message at zero: Simulate under it is the
// pure progress check NewPlanOrdered uses to reject deadlocking lane orders.
type zeroCost struct{}

func (zeroCost) NodeCost(*graph.Node) float64 { return 0 }
func (zeroCost) EdgeCost() float64            { return 0 }

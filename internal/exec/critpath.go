package exec

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/obs"
)

// CritStep is one node on a run's measured critical path.
type CritStep struct {
	Node string `json:"node"`
	Op   string `json:"op"`
	Lane int    `json:"lane"`
	// StartNs/DurNs place the kernel on the run clock.
	StartNs int64 `json:"start_ns"`
	DurNs   int64 `json:"dur_ns"`
	// WaitNs is the gap between the binding predecessor's finish and this
	// node's start: cross-lane message latency plus scheduling delay on the
	// path (for the first step, time from run start to the kernel).
	WaitNs int64 `json:"wait_ns"`
}

// CriticalPathReport is the measured critical path of one sampled run — the
// chain of kernels and waits that actually bounded the run's wall time —
// next to the static cost model's predicted critical path, so the two can
// be diffed: a schedule is only as good as the model that shaped it.
type CriticalPathReport struct {
	// Steps is the measured longest chain in execution order.
	Steps []CritStep `json:"steps"`
	// OpNs/WaitNs split the chain's span into kernel time and waiting;
	// WallNs is the run's wall time for reference (the chain ends at the
	// last-finishing kernel, so OpNs+WaitNs ≈ its finish offset).
	OpNs   int64 `json:"op_ns"`
	WaitNs int64 `json:"wait_ns"`
	WallNs int64 `json:"wall_ns"`
	// PredictedPath and PredictedCost are the static model's critical path
	// over the same graph (cost.CriticalPath): node names and weighted cost.
	PredictedPath []string `json:"predicted_path"`
	PredictedCost float64  `json:"predicted_cost"`
	// Overlap is the fraction of measured-path nodes that also lie on the
	// predicted path — 1.0 means the static model picked the right chain.
	Overlap float64 `json:"overlap"`
}

// CriticalPathFromTimeline recovers the measured critical path of one
// sampled run: starting from the last-finishing kernel, it walks backwards
// choosing at each node the latest-finishing of its dataflow predecessors
// and its lane predecessor (the node that ran just before it on the same
// lane — lane order is a scheduling dependence even without dataflow). The
// static model m (nil = the paper's default weights) supplies the predicted
// path for comparison.
func (p *Plan) CriticalPathFromTimeline(r *obs.RunTimeline, m cost.Model) (*CriticalPathReport, error) {
	if r == nil {
		return nil, fmt.Errorf("exec: no timeline to analyze")
	}
	if m == nil {
		m = cost.DefaultModel()
	}
	// Index the run's op spans by node, and link each to its lane
	// predecessor. Spans arrive grouped by lane in per-lane time order.
	type spanAt struct {
		span     obs.OpSpan
		node     *graph.Node
		lanePrev *graph.Node
	}
	nodeByName := make(map[string]*graph.Node, len(p.Graph.Nodes))
	for _, lane := range p.Lanes {
		for _, n := range lane {
			nodeByName[n.Name] = n
		}
	}
	at := make(map[*graph.Node]*spanAt, len(nodeByName))
	lastOnLane := make(map[int32]*graph.Node, r.Lanes)
	var end *spanAt
	for _, s := range r.Spans {
		if s.Kind != obs.SpanOp {
			continue
		}
		n := nodeByName[s.Name]
		if n == nil {
			return nil, fmt.Errorf("exec: timeline span %q names no plan node", s.Name)
		}
		sa := &spanAt{span: s, node: n, lanePrev: lastOnLane[s.Lane]}
		lastOnLane[s.Lane] = n
		at[n] = sa
		if end == nil || sa.span.EndNs() > end.span.EndNs() {
			end = sa
		}
	}
	if end == nil {
		return nil, fmt.Errorf("exec: timeline has no op spans")
	}

	rep := &CriticalPathReport{WallNs: r.WallNs}
	// Backward walk: bind each step to its latest-finishing predecessor.
	var rev []CritStep
	for cur := end; cur != nil; {
		var binding *spanAt
		consider := func(n *graph.Node) {
			if n == nil {
				return
			}
			if sa := at[n]; sa != nil && (binding == nil || sa.span.EndNs() > binding.span.EndNs()) {
				binding = sa
			}
		}
		for _, pred := range p.Graph.Predecessors(cur.node) {
			consider(pred)
		}
		consider(cur.lanePrev)
		wait := cur.span.StartNs
		if binding != nil {
			wait -= binding.span.EndNs()
		}
		if wait < 0 {
			wait = 0 // clock skew between lanes' time.Now reads
		}
		rev = append(rev, CritStep{
			Node:    cur.node.Name,
			Op:      cur.node.OpType,
			Lane:    int(cur.span.Lane),
			StartNs: cur.span.StartNs,
			DurNs:   cur.span.DurNs,
			WaitNs:  wait,
		})
		rep.OpNs += cur.span.DurNs
		rep.WaitNs += wait
		cur = binding
	}
	rep.Steps = make([]CritStep, len(rev))
	for i, s := range rev {
		rep.Steps[len(rev)-1-i] = s
	}

	// Static prediction over the same graph, for the divergence view.
	pred, predCost, err := cost.CriticalPath(p.Graph, m)
	if err == nil {
		rep.PredictedCost = predCost
		onPred := make(map[string]bool, len(pred))
		for _, n := range pred {
			rep.PredictedPath = append(rep.PredictedPath, n.Name)
			onPred[n.Name] = true
		}
		if len(rep.Steps) > 0 {
			hits := 0
			for _, s := range rep.Steps {
				if onPred[s.Node] {
					hits++
				}
			}
			rep.Overlap = float64(hits) / float64(len(rep.Steps))
		}
	}
	return rep, nil
}

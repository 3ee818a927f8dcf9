package sched

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
)

// IOSOptions bounds the dynamic program.
type IOSOptions struct {
	// MaxStageWidth caps how many groups one stage may run in parallel
	// (the device's core budget in IOS).
	MaxStageWidth int
	// MaxStatesPerBlock caps the DP work per block — memoised states plus
	// the stage subsets they enumerate — before the block falls back to
	// the greedy beam (0 = unlimited).
	MaxStatesPerBlock int
}

// DefaultIOSOptions mirrors a 12-core target like the paper's Xeon.
func DefaultIOSOptions() IOSOptions {
	return IOSOptions{MaxStageWidth: 12, MaxStatesPerBlock: 200000}
}

// Stage is one step of an IOS schedule: a set of chain groups executed in
// parallel; the stage ends when all groups finish.
type Stage struct {
	// Groups holds each parallel group's nodes in execution order.
	Groups [][]*graph.Node
	// Cost is the stage makespan under the cost model: the heaviest group.
	Cost float64
}

// Schedule is the scheduler's output: consecutive stages plus bookkeeping
// for Table VIII.
type Schedule struct {
	Stages []Stage
	// Makespan is the modelled runtime: sum of stage costs.
	Makespan float64
	// CompileTime is how long the scheduler itself ran.
	CompileTime time.Duration
	// StatesExplored counts DP states, the work metric that explains why
	// IOS compiles orders of magnitude slower than linear clustering.
	StatesExplored int
}

// Lanes converts the staged schedule into executor lanes: group i of every
// stage maps to lane i, preserving stage order within each lane. Lane
// count is the widest stage.
func (s *Schedule) Lanes() [][]*graph.Node {
	width := 0
	for _, st := range s.Stages {
		if len(st.Groups) > width {
			width = len(st.Groups)
		}
	}
	lanes := make([][]*graph.Node, width)
	for _, st := range s.Stages {
		for gi, grp := range st.Groups {
			lanes[gi] = append(lanes[gi], grp...)
		}
	}
	return lanes
}

// IOS runs the inter-operator-scheduler dynamic program: split the
// operator DAG into blocks, and within each block explore stage
// decompositions of the ready frontier with memoization, choosing the stage
// split minimizing total makespan. It reproduces the published algorithm's
// structure — optimal within its search space, at a compile cost that grows
// steeply with block width — which is precisely the trade-off Table VIII
// measures against linear clustering.
func IOS(g *graph.Graph, m cost.Model, opts IOSOptions) (*Schedule, error) {
	start := time.Now()
	if opts.MaxStageWidth < 1 {
		opts.MaxStageWidth = 1
	}
	chains, err := operatorChains(g, m)
	if err != nil {
		return nil, err
	}
	sched := &Schedule{}
	for _, block := range blocks(chains) {
		stages, states, err := scheduleBlock(block, opts)
		if err != nil {
			return nil, err
		}
		sched.Stages = append(sched.Stages, stages...)
		sched.StatesExplored += states
	}
	for _, st := range sched.Stages {
		sched.Makespan += st.Cost
	}
	sched.CompileTime = time.Since(start)
	return sched, nil
}

// scheduleBlock runs the exact subset DP over the block's operators, whose
// downward-closed state space is what makes IOS expensive. A block too wide
// for the DP's 64-bit state mask has its linear runs contracted (IOS's
// operator grouping) first; only when even the contracted block is too wide
// does the greedy beam take over.
func scheduleBlock(block []*chainNode, opts IOSOptions) ([]Stage, int, error) {
	const maxDP = 62 // bitmask DP bound
	if len(block) <= maxDP {
		return dpBlock(block, opts)
	}
	if contracted := contractBlock(block); len(contracted) <= maxDP {
		return dpBlock(contracted, opts)
	}
	return beamBlock(block, opts)
}

// contractBlock merges maximal single-successor/single-predecessor runs of
// block-local chains into larger chainNodes (adjacency restricted to the
// block; cross-block edges are already satisfied when the block runs).
func contractBlock(block []*chainNode) []*chainNode {
	in := map[*chainNode]bool{}
	for _, c := range block {
		in[c] = true
	}
	localSuccs := func(c *chainNode) []*chainNode {
		var out []*chainNode
		for _, s := range c.succs {
			if in[s] {
				out = append(out, s)
			}
		}
		return out
	}
	localPreds := func(c *chainNode) []*chainNode {
		var out []*chainNode
		for _, p := range c.preds {
			if in[p] {
				out = append(out, p)
			}
		}
		return out
	}
	owner := map[*chainNode]*chainNode{}
	var merged []*chainNode
	for _, c := range block { // topological within block
		ps := localPreds(c)
		if len(ps) == 1 && len(localSuccs(ps[0])) == 1 {
			host := owner[ps[0]]
			host.nodes = append(host.nodes, c.nodes...)
			host.cost += c.cost
			owner[c] = host
			continue
		}
		nc := &chainNode{id: len(merged), nodes: append([]*graph.Node(nil), c.nodes...), cost: c.cost}
		merged = append(merged, nc)
		owner[c] = nc
	}
	// Rebuild merged adjacency.
	seen := map[[2]*chainNode]bool{}
	for _, c := range block {
		for _, s := range localSuccs(c) {
			a, b := owner[c], owner[s]
			if a != b && !seen[[2]*chainNode{a, b}] {
				seen[[2]*chainNode{a, b}] = true
				a.succs = append(a.succs, b)
				b.preds = append(b.preds, a)
			}
		}
	}
	for _, c := range merged {
		sort.Slice(c.succs, func(i, j int) bool { return c.succs[i].id < c.succs[j].id })
		sort.Slice(c.preds, func(i, j int) bool { return c.preds[i].id < c.preds[j].id })
	}
	return merged
}

// dpBlock: state = bitmask of executed chains (downward closed); value =
// minimal remaining makespan; transition = execute one "stage": any
// antichain subset of currently ready chains, up to MaxStageWidth groups.
// Every state visit and every enumerated subset counts against the block's
// work budget; once it is spent the DP stops enumerating and the block
// falls back to the greedy beam.
func dpBlock(block []*chainNode, opts IOSOptions) ([]Stage, int, error) {
	n := len(block)
	idx := make(map[*chainNode]int, n)
	for i, c := range block {
		idx[c] = i
	}
	// Precompute per-chain predecessor masks (within-block only).
	predMask := make([]uint64, n)
	for i, c := range block {
		for _, p := range c.preds {
			if j, ok := idx[p]; ok {
				predMask[i] |= 1 << uint(j)
			}
		}
	}
	full := uint64(1)<<uint(n) - 1
	memo := map[uint64]float64{full: 0}
	choice := map[uint64]uint64{}
	states, work := 0, 0
	spent := func() bool {
		work++
		return opts.MaxStatesPerBlock > 0 && work > opts.MaxStatesPerBlock
	}

	var solve func(done uint64) float64
	solve = func(done uint64) float64 {
		if v, ok := memo[done]; ok {
			return v
		}
		states++
		if spent() {
			memo[done] = 0
			return 0
		}
		// Ready chains: unexecuted with all preds done.
		var ready []int
		for i := 0; i < n; i++ {
			bit := uint64(1) << uint(i)
			if done&bit == 0 && predMask[i]&^done == 0 {
				ready = append(ready, i)
			}
		}
		if len(ready) == 0 {
			// Unreachable for a DAG unless done == full.
			memo[done] = 0
			return 0
		}
		best := -1.0
		var bestSet uint64
		// Enumerate non-empty subsets of ready chains, width-capped.
		// IOS enumerates stage splits; subsets of the ready antichain are
		// exactly the realizable stages here because ready chains are
		// mutually independent.
		limit := 1 << uint(len(ready))
		for sub := 1; sub < limit; sub++ {
			if spent() {
				break // the partial result is discarded below
			}
			if popcount(uint(sub)) > opts.MaxStageWidth {
				continue
			}
			var mask uint64
			stageCost := 0.0
			for bi, ci := range ready {
				if sub&(1<<uint(bi)) != 0 {
					mask |= 1 << uint(ci)
					if c := block[ci].cost; c > stageCost {
						stageCost = c
					}
				}
			}
			rest := solve(done | mask)
			if total := stageCost + rest; best < 0 || total < best {
				best = total
				bestSet = mask
			}
		}
		memo[done] = best
		choice[done] = bestSet
		return best
	}
	solve(0)
	if opts.MaxStatesPerBlock > 0 && work > opts.MaxStatesPerBlock {
		// Work budget exhausted: the exact DP is intractable for this
		// block (exactly the regime where the published IOS burns its 90
		// minutes); fall back to the greedy beam, keeping the states
		// counter as the work record.
		stages, extra, err := beamBlock(block, opts)
		return stages, states + extra, err
	}

	// Reconstruct stages.
	var stages []Stage
	done := uint64(0)
	for done != full {
		set, ok := choice[done]
		if !ok || set == 0 {
			return nil, states, fmt.Errorf("sched: DP reconstruction stuck at %b", done)
		}
		st := Stage{}
		for i := 0; i < n; i++ {
			if set&(1<<uint(i)) != 0 {
				st.Groups = append(st.Groups, block[i].nodes)
				if block[i].cost > st.Cost {
					st.Cost = block[i].cost
				}
			}
		}
		stages = append(stages, st)
		done |= set
	}
	return stages, states, nil
}

// beamBlock handles blocks too wide for exact DP: at each step it takes
// all ready chains (up to MaxStageWidth, heaviest first) as one stage —
// the greedy corner of the same search space.
func beamBlock(block []*chainNode, opts IOSOptions) ([]Stage, int, error) {
	done := map[*chainNode]bool{}
	remaining := len(block)
	inBlock := map[*chainNode]bool{}
	for _, c := range block {
		inBlock[c] = true
	}
	var stages []Stage
	states := 0
	for remaining > 0 {
		var ready []*chainNode
		for _, c := range block {
			if done[c] {
				continue
			}
			ok := true
			for _, p := range c.preds {
				if inBlock[p] && !done[p] {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, c)
			}
		}
		if len(ready) == 0 {
			return nil, states, fmt.Errorf("sched: beam stuck with %d chains left", remaining)
		}
		sort.Slice(ready, func(i, j int) bool {
			if ready[i].cost != ready[j].cost {
				return ready[i].cost > ready[j].cost
			}
			return ready[i].id < ready[j].id
		})
		if len(ready) > opts.MaxStageWidth {
			ready = ready[:opts.MaxStageWidth]
		}
		st := Stage{}
		for _, c := range ready {
			st.Groups = append(st.Groups, c.nodes)
			if c.cost > st.Cost {
				st.Cost = c.cost
			}
			done[c] = true
			remaining--
		}
		states++
		stages = append(stages, st)
	}
	return stages, states, nil
}

func popcount(x uint) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

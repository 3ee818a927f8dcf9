package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/memplan"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Plan is an executable parallel schedule: a partition of the graph's
// nodes into lanes (clusters), each lane's nodes in a dependency-respecting
// order. It is produced from a core.Clustering but typed on plain node
// slices so this package stays independent of the clustering package.
//
// Concurrency contract: once built, a Plan is immutable and Execute may be
// called from any number of goroutines simultaneously on the same Plan —
// the serving invariant (compile once, serve many). Everything a run needs
// that depends only on the plan (value slots, per-lane steps, hand-offs,
// the release schedule) lives in the run table, built once on first use
// and only read afterwards; each run owns its frame, ready channels and
// reference counts. Mutating Graph or Lanes after the first Execute is not
// supported.
type Plan struct {
	Graph *graph.Graph
	// Lanes lists each cluster's nodes in execution order.
	Lanes [][]*graph.Node

	tableOnce sync.Once
	tbl       *runTable

	// kernels holds every node's bound kernel (ops.Bind), with its constant
	// weights packed, bound once — by Compile, or else with the run table;
	// every run reuses the same bindings.
	bindOnce sync.Once
	kernels  map[*graph.Node]*ops.Bound

	// tl is the plan's optional execution-timeline flight recorder (see
	// EnableTimeline): when set, one run in N is sampled into per-op spans
	// with cross-lane wait attribution. Atomic so monitoring can attach a
	// recorder to a live serving plan without stopping runs. The default
	// (nil) costs each run exactly one atomic load and each hot-loop event
	// site one nil check — the zero-allocation contract is pinned by test.
	tl atomic.Pointer[obs.Timeline]
}

// EnableTimeline attaches an execution-timeline recorder to the plan,
// sampling one run in `every` into a ring of the most recent `ring` sampled
// runs, and returns it. Replaces any previous recorder. Safe to call
// concurrently with runs; in-flight runs keep recording into the recorder
// they started with.
func (p *Plan) EnableTimeline(every, ring int) *obs.Timeline {
	t := obs.NewTimeline(every, ring)
	p.tl.Store(t)
	return t
}

// DisableTimeline detaches the plan's timeline recorder (if any); later
// runs go back to the zero-overhead path.
func (p *Plan) DisableTimeline() { p.tl.Store(nil) }

// Timeline returns the plan's attached recorder, nil when disabled.
func (p *Plan) Timeline() *obs.Timeline { return p.tl.Load() }

// LastTimeline returns the most recent sampled run's timeline, nil when
// recording is disabled or nothing has been sampled yet.
func (p *Plan) LastTimeline() *obs.RunTimeline { return p.tl.Load().Last() }

// runTable is the run-invariant half of Execute, the static routing of the
// paper's Algorithm 4: every value name is a dense slot, and every lane is a
// list of steps that name their inputs, outputs, cross-lane hand-offs and
// arena releases by slot. It is built once per plan on first use and only
// read afterwards (apart from the steps' op counters); a run copies the
// template into its own frame and walks its lane's steps without a single
// name or node lookup.
type runTable struct {
	// names maps each slot back to its value name (timeline records and
	// error text).
	names []string
	// template holds one entry per slot with every referenced initializer
	// already in place; each run starts from a copy of it.
	template []*tensor.Tensor
	// inputs and outputs are the slots of Graph.Inputs and Graph.Outputs,
	// by position. escapes marks the outputs a node produces: they leave
	// the run's arena accounting when the run hands them to the caller.
	inputs, outputs []int32
	escapes         []bool
	// refs seeds an arena run's per-slot reference counts: a managed
	// value's use count from the memory plan, or 1 for a zero-use value its
	// producer releases, so every managed value is released by exactly one
	// code path; 0 for unmanaged slots. Nil when the graph defies memory
	// analysis — arena runs then allocate from the arena but never recycle.
	refs []int32
	mem  *memplan.Plan
	// cross lists the slots of the cross-lane values: a run makes one ready
	// channel per value, closed by its producer and waited on by every
	// consuming lane.
	cross []int32
	// width is the longest input list of any node: each lane's per-run
	// input scratch.
	width int
	lanes [][]step
}

// step is one node's entry in its lane's run schedule.
type step struct {
	node    *graph.Node
	in, out []int32
	// wait lists the cross-lane inputs this lane first reads at this step;
	// publish lists this node's outputs that other lanes read.
	wait, publish []handoff
	// release lists the slots whose reference count drops when the node
	// completes: one per managed input occurrence, plus one per zero-use
	// output. An in-place node's first input is absent — its buffer lives
	// on as the output and is released when the output dies.
	release []int32
	// kernel is the node's bound kernel, the executor's one way to run it.
	kernel *ops.Bound
	// inplace marks nodes whose kernel runs in place on arena runs: the
	// memory plan proves their first input dies with them
	// (memplan.CanWriteInPlace) and the binding has an in-place form.
	inplace bool
	// calls/ns are the plan's always-on execution counters for this node:
	// kernel invocations and cumulative kernel nanoseconds across every run
	// of the plan — the live analogue of the offline MeasureCosts pass,
	// read by OpTotals and Calibrate.
	calls, ns atomic.Int64
}

// handoff is one cross-lane value at one end of its transfer: the value's
// slot, the producing lane (wait side) and the consuming lanes (publish
// side).
type handoff struct {
	slot int32
	from int
	to   []int
}

// table returns the plan's run table, building it on first use; building
// it is also what keeps concurrent runs off the Graph's lazily-built
// producer/consumer indexes.
func (p *Plan) table() *runTable {
	p.tableOnce.Do(p.buildTable)
	return p.tbl
}

func (p *Plan) buildTable() {
	g := p.Graph
	// A graph the memory planner cannot analyze (never one NewPlan has
	// validated) still runs: with a nil plan nothing is released or run in
	// place, so the error has no other use.
	mp, _ := memplan.Build(g, p.Lanes)
	rt := &runTable{lanes: make([][]step, len(p.Lanes)), mem: mp}
	slotOf := map[string]int32{}
	slot := func(name string) int32 {
		s, ok := slotOf[name]
		if !ok {
			s = int32(len(rt.names))
			slotOf[name] = s
			rt.names = append(rt.names, name)
		}
		return s
	}
	laneOf := make(map[*graph.Node]int, len(g.Nodes))
	for li, lane := range p.Lanes {
		for _, n := range lane {
			laneOf[n] = li
		}
	}
	managed := func(name string) bool { return mp != nil && mp.IndexOf(name) != memplan.Unmanaged }
	kernels := p.bind()

	for _, in := range g.Inputs {
		rt.inputs = append(rt.inputs, slot(in.Name))
	}
	for li, lane := range p.Lanes {
		steps := make([]step, len(lane))
		waited := map[int32]bool{}
		for ni, n := range lane {
			s := &steps[ni]
			s.node, s.kernel = n, kernels[n]
			s.inplace = mp != nil && s.kernel.InPlace() && mp.CanWriteInPlace(n.Name)
			rt.width = max(rt.width, len(n.Inputs))
			for ii, in := range n.Inputs {
				sl := slot(in)
				s.in = append(s.in, sl)
				if prod := g.Producer(in); prod != nil && laneOf[prod] != li && !waited[sl] {
					waited[sl] = true
					s.wait = append(s.wait, handoff{slot: sl, from: laneOf[prod]})
				}
				if managed(in) && !(s.inplace && ii == 0) {
					s.release = append(s.release, sl)
				}
			}
			for _, out := range n.Outputs {
				sl := slot(out)
				s.out = append(s.out, sl)
				h := handoff{slot: sl}
				for _, c := range g.Consumers(out) {
					if cl := laneOf[c]; cl != li && !slices.Contains(h.to, cl) {
						h.to = append(h.to, cl)
					}
				}
				if len(h.to) > 0 {
					s.publish = append(s.publish, h)
					rt.cross = append(rt.cross, sl)
				}
				if managed(out) && mp.UseCount(out) == 0 {
					s.release = append(s.release, sl)
				}
			}
		}
		rt.lanes[li] = steps
	}
	for i, o := range g.Outputs {
		rt.outputs = append(rt.outputs, slot(o.Name))
		first := !slices.Contains(rt.outputs[:i], rt.outputs[i])
		rt.escapes = append(rt.escapes, first && g.Producer(o.Name) != nil)
	}

	rt.template = make([]*tensor.Tensor, len(rt.names))
	if mp != nil {
		rt.refs = make([]int32, len(rt.names))
	}
	for s, name := range rt.names {
		rt.template[s] = g.Initializers[name]
		if managed(name) {
			rt.refs[s] = int32(max(mp.UseCount(name), 1))
		}
	}
	p.tbl = rt
}

// MemoryPlan returns the plan's static memory plan (use counts, in-place
// eligibility, peak estimates), building the run table on first use. Nil
// when the graph defies analysis, which cannot happen for plans built by
// NewPlan/NewPlanOrdered.
func (p *Plan) MemoryPlan() *memplan.Plan { return p.table().mem }

// packKey identifies one distinct packing: the weight tensor plus the
// attributes that shape its packed layout. Hyperclustered graphs
// replicate every GEMM/Conv node per sample while sharing the weight
// initializers, so memoizing on this key keeps one packed copy per
// weight instead of one per replica.
type packKey struct {
	op     string
	weight *tensor.Tensor
	transB bool
	groups int
	viewB  bool // a MatMul reading its weight through a view packs nothing
}

// bind returns every node's bound kernel, binding them on first use. A
// weight operand is passed to ops.Bind as a constant only when it is a
// graph initializer and not also a declared graph input — a feed could
// override the initializer value there. Nodes sharing one packKey share
// the first node's packing. An op with no kernel binds to one that fails
// when its step runs.
func (p *Plan) bind() map[*graph.Node]*ops.Bound {
	p.bindOnce.Do(func() {
		g := p.Graph
		p.kernels = make(map[*graph.Node]*ops.Bound, len(g.Nodes))
		shared := map[packKey]*ops.Prepacked{}
		for _, n := range g.Nodes {
			consts := make([]*tensor.Tensor, len(n.Inputs))
			for i, name := range n.Inputs {
				if t := g.Initializers[name]; t != nil && !g.IsGraphInput(name) {
					consts[i] = t
				}
			}
			var key packKey
			if len(consts) >= 2 && consts[1] != nil {
				key = packKey{
					op:     n.OpType,
					weight: consts[1],
					transB: n.Attrs.Int("transB", 0) != 0,
					groups: n.Attrs.Int("group", 1),
					viewB:  ops.HasView(n.Attrs, ops.ViewB),
				}
			}
			pp := shared[key]
			if pp != nil {
				consts[1] = nil // adopt the shared packing instead of packing again
			}
			b, _ := ops.Bind(n.OpType, n.Attrs, consts)
			if pp != nil {
				b.Packed = pp
			} else if b.Packed != nil {
				shared[key] = b.Packed
			}
			p.kernels[n] = b
		}
	})
	return p.kernels
}

// PrepackWeights binds every node's kernel (idempotent; Compile calls it
// eagerly so Session.Run never pays it) and reports how many nodes got
// packed constant weights and their total packed bytes.
func (p *Plan) PrepackWeights() (nodes int, bytes int64) {
	seen := map[*ops.Prepacked]bool{}
	for _, b := range p.bind() {
		if b.Packed == nil {
			continue
		}
		nodes++
		if !seen[b.Packed] {
			seen[b.Packed] = true
			bytes += b.Packed.Bytes() // replicas share one packing; count it once
		}
	}
	return nodes, bytes
}

// OpTotals aggregates the plan's per-node execution counters by operator
// type: invocations and cumulative kernel time since the plan was built,
// across every run, sorted by cumulative time descending. It reports where
// the model's execution time actually goes — the live measured-cost view
// the static cost model (the paper's Table I) approximates at compile time.
// Safe to call concurrently with runs; a snapshot racing active lanes may
// miss their in-flight nodes.
func (p *Plan) OpTotals() []obs.OpTotal {
	agg := make(map[string]obs.OpTotal)
	p.eachOp(func(n *graph.Node, calls, ns int64) {
		t := agg[n.OpType]
		t.Op = n.OpType
		t.Count += calls
		t.TotalNs += ns
		agg[n.OpType] = t
	})
	if len(agg) == 0 {
		return nil
	}
	out := make([]obs.OpTotal, 0, len(agg))
	for _, t := range agg {
		out = append(out, t)
	}
	obs.SortOpTotals(out)
	return out
}

// eachOp calls f, in lane order, for every node that has executed at least
// once, with its cumulative invocations and kernel nanoseconds.
func (p *Plan) eachOp(f func(n *graph.Node, calls, ns int64)) {
	for _, steps := range p.table().lanes {
		for i := range steps {
			s := &steps[i]
			if calls := s.calls.Load(); calls > 0 {
				f(s.node, calls, s.ns.Load())
			}
		}
	}
}

// laneRun is one lane's outcome of one run: its failure, if any, and how
// many of its nodes completed — the position the stall diagnostic attached
// to cancellation-class failures reports (see StallError). Written only by
// the owning lane goroutine and read after wg.Wait (a happens-before edge),
// so no atomics are needed.
type laneRun struct {
	err  error
	done int
}

// isCancel reports a cancellation-class failure: the run's context was
// cancelled or its deadline expired.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// NewPlan builds a Plan from cluster node lists, reordering each lane into
// a dependency-respecting order (global topological position) and
// validating that the lanes partition the graph.
func NewPlan(g *graph.Graph, lanes [][]*graph.Node) (*Plan, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	pos := make(map[*graph.Node]int, len(order))
	for i, n := range order {
		pos[n] = i
	}
	sorted := make([][]*graph.Node, len(lanes))
	for i, lane := range lanes {
		sorted[i] = slices.Clone(lane)
		slices.SortFunc(sorted[i], func(a, b *graph.Node) int { return pos[a] - pos[b] })
	}
	if err := checkPartition(g, sorted); err != nil {
		return nil, err
	}
	return &Plan{Graph: g, Lanes: sorted}, nil
}

// NewPlanOrdered builds a Plan that preserves the given lane orders exactly
// (hyperclustering's sample interleaving is meaningful order), verifying
// that the lanes partition the graph and that executing each lane in its
// stated order cannot deadlock across lanes.
func NewPlanOrdered(g *graph.Graph, lanes [][]*graph.Node) (*Plan, error) {
	if err := checkPartition(g, lanes); err != nil {
		return nil, err
	}
	// A lane order that stalls a zero-cost simulation would deadlock the
	// executor, so the plan is rejected.
	p := &Plan{Graph: g, Lanes: lanes}
	if _, err := Simulate(p, zeroCost{}); err != nil {
		return nil, err
	}
	return p, nil
}

// checkPartition verifies that the lanes cover every node of g exactly once.
func checkPartition(g *graph.Graph, lanes [][]*graph.Node) error {
	seen := map[*graph.Node]bool{}
	for _, lane := range lanes {
		for _, n := range lane {
			if seen[n] {
				return fmt.Errorf("exec: node %s appears in multiple lanes", n.Name)
			}
			seen[n] = true
		}
	}
	if len(seen) != len(g.Nodes) {
		return fmt.Errorf("exec: lanes cover %d nodes, graph has %d", len(seen), len(g.Nodes))
	}
	return nil
}

// Execute is the plan's one entry point: a parallel run under ctx — one
// goroutine per lane walking its steps over a shared frame of value slots,
// one ready channel per cross-lane value, mirroring the paper's Algorithm 4
// runtime of queue.put/queue.get message passing between Python processes —
// returning the graph outputs. What the run did is recorded by the plan's op
// counters (OpTotals) and, on a sampled run, its timeline (EnableTimeline).
//
// Every kernel output is allocated from the arena ar and each intermediate's
// storage goes back to it the moment its statically-known last consumer
// finishes (the release schedule of internal/memplan); graph outputs escape
// to the caller as ordinary heap-owned tensors. Concurrent runs must each
// pass their own (or a pooled, currently idle) arena; keeping one alive
// across sequential runs is what makes steady-state inference allocation-
// free for intermediates. A nil ar gets a fresh arena for this one run.
// RunSequential is the heap reference the arena path is checked against.
//
// Cancellation is cooperative: lanes observe ctx between operator kernels
// and while blocked on cross-lane receives, so a cancelled or deadline-
// expired run unwinds within one kernel's duration. The unwind is clean —
// every lane goroutine exits before Execute returns (no leaks), and the
// arena stays consistent: buffers are only ever recycled after their global
// reference count reaches zero, so nothing still reachable is released and
// the arena is immediately reusable by the next run. Tensors that were in
// flight when the run aborted are simply dropped to the garbage collector.
// On cancellation the returned error is ctx.Err() (context.Canceled or
// context.DeadlineExceeded), unwrapped, so callers can errors.Is it.
func (p *Plan) Execute(ctx context.Context, feeds Env, ar *tensor.Arena) (Env, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	done := ctx.Done()
	rt := p.table()
	// The run's frame: one tensor per value slot, initializers already in
	// place. Each lane writes only the slots its nodes produce and reads
	// another lane's slot only after that value's ready channel closes.
	frame := append([]*tensor.Tensor(nil), rt.template...)
	for i, in := range p.Graph.Inputs {
		t, err := feedFor(in, feeds)
		if err != nil {
			return nil, err
		}
		frame[rt.inputs[i]] = t
	}
	// Timeline sampling decision for this run: rec stays nil on the default
	// path (no recorder, or an unsampled run), and every record site below
	// is a nil-safe no-op then — the hot loop's zero-allocation contract.
	rec := p.tl.Load().StartRun(len(p.Lanes))

	// A private copy of the reference counts. Lane goroutines decrement
	// the counts of a node's managed inputs once the node completes;
	// whoever performs a value's final decrement owns the release.
	if ar == nil {
		ar = tensor.NewArena()
	}
	refs := slices.Clone(rt.refs)

	// One ready channel per cross-lane value, freshly made per run so
	// concurrent runs never share signals: the producer closes it once the
	// value is in its slot, which releases every consuming lane at once.
	ready := make([]chan struct{}, len(rt.names))
	for _, sl := range rt.cross {
		ready[sl] = make(chan struct{})
	}
	scratch := make([]*tensor.Tensor, rt.width*len(rt.lanes))

	runs := make([]laneRun, len(p.Lanes))
	// abort is closed on the first lane failure so blocked receivers in
	// other lanes unblock instead of deadlocking.
	abort := make(chan struct{})
	var abortOnce sync.Once
	fail := func(li int, err error) {
		runs[li].err = err
		abortOnce.Do(func() { close(abort) })
	}
	var wg sync.WaitGroup
	for li, steps := range rt.lanes {
		wg.Add(1)
		go func(li int, steps []step) {
			defer wg.Done()
			// A panicking kernel must not take the process down. Registered
			// after wg.Done so it runs first: the failure is recorded (and
			// the abort broadcast) before the lane is counted finished.
			defer func() {
				if r := recover(); r != nil {
					// An arena budget denial is raised as a panic (the
					// Allocator interface has no error return) but it is a
					// resource verdict, not a bug: unwind it as an ordinary
					// lane failure so the run aborts like a cancellation.
					if be, ok := r.(*tensor.BudgetError); ok {
						fail(li, be)
						return
					}
					fail(li, &PanicError{Value: r, Stack: debug.Stack()})
				}
			}()
			in := scratch[li*rt.width : (li+1)*rt.width]
			for si := range steps {
				s := &steps[si]
				// Observe cancellation between ops: one non-blocking poll per
				// node, so an aborted run stops within a kernel's duration.
				if done != nil {
					select {
					case <-done:
						fail(li, ctx.Err())
						return
					default:
					}
				}
				// Wait for the remote inputs this lane has not seen yet. Wait
				// time is only recorded into a sampled timeline, so an
				// unsampled run takes no timestamps here.
				for _, w := range s.wait {
					var waitStart time.Time
					if rec != nil {
						waitStart = time.Now()
					}
					select {
					case <-ready[w.slot]:
						if rec != nil {
							rec.Wait(li, w.from, rt.names[w.slot], waitStart, time.Since(waitStart))
						}
					case <-abort:
						return
					case <-done: // nil (blocks forever) without a cancelable ctx
						fail(li, ctx.Err())
						return
					}
				}
				busyStart := time.Now()
				args := in[:len(s.in)]
				for i, sl := range s.in {
					if args[i] = frame[sl]; args[i] == nil {
						fail(li, fmt.Errorf("exec: node %s: input %q not available", s.node.Name, rt.names[sl]))
						return
					}
				}
				outs, err := runKernel(s.node, s.kernel, args, ar, s.inplace)
				if err != nil {
					fail(li, err)
					return
				}
				for i, sl := range s.out {
					frame[sl] = outs[i]
				}
				busy := time.Since(busyStart)
				// Accumulate the plan's per-node execution counters: two
				// lock-free atomic ops and no allocation.
				s.calls.Add(1)
				s.ns.Add(int64(busy))
				rec.Op(li, s.node.Name, s.node.OpType, busyStart, busy)
				for _, h := range s.publish {
					close(ready[h.slot])
					if rec != nil {
						for _, cl := range h.to {
							rec.Send(li, cl, rt.names[h.slot], time.Now())
						}
					}
				}
				// Release the node's dead inputs (and dead-on-arrival
				// outputs) back to the run's arena. This runs after the
				// publishes: a node's own outputs still carry their
				// consumers' references, so only values whose global count
				// reaches zero here — no reader left in any lane — are
				// recycled.
				for _, sl := range s.release {
					if atomic.AddInt32(&refs[sl], -1) == 0 {
						tensor.ReleaseData(ar, frame[sl])
					}
				}
				runs[li].done = si + 1
			}
		}(li, steps)
	}
	wg.Wait()
	// Kernel failures outrank cancellation: a lane that died for a real
	// reason is the root cause even if the caller also gave up waiting.
	// Pure cancellations surface as the bare ctx error.
	var runErr error
	for li, r := range runs {
		if r.err != nil && !isCancel(r.err) {
			runErr = fmt.Errorf("exec: lane %d failed: %w", li, r.err)
			break
		}
		if runErr == nil {
			runErr = r.err
		}
	}
	if runErr != nil {
		// Cancellation-class aborts carry the stall diagnostic: which op
		// each unfinished lane was at when the run unwound. This is the
		// runtime twin of NewPlanOrdered's compile-time stuck list, and it
		// rides the error into logs and /v1/trace spans. Allocation happens
		// only on this already-failed path.
		if isCancel(runErr) {
			if stuck := p.stuckAt(runs); len(stuck) > 0 {
				runErr = &StallError{Err: runErr, Stuck: stuck}
			}
		}
		// The unwound run abandons its in-flight tensors to the GC; take
		// their bytes out of the arena's in-use accounting so the gauge
		// reflects reality. Safe here: every lane has exited.
		ar.AbandonOutstanding()
		// A failed sampled run still commits its partial timeline (marked
		// incomplete): seeing where lanes stopped is diagnostic signal.
		rec.Commit(time.Since(start), false)
		return nil, runErr
	}

	// Every lane has exited, so the frame is the caller's from here on.
	outVals := make(Env, len(rt.outputs))
	for i, sl := range rt.outputs {
		name := p.Graph.Outputs[i].Name
		if frame[sl] == nil {
			return nil, fmt.Errorf("exec: graph output %q was not produced", name)
		}
		outVals[name] = frame[sl]
		// Node-produced graph outputs escape to the caller: drop them from
		// the arena's working-set accounting so long-lived arenas report
		// the real steady-state footprint, not a per-request ratchet.
		if rt.escapes[i] {
			ar.NoteEscape(frame[sl].Data())
		}
	}
	rec.Commit(time.Since(start), true)
	return outVals, nil
}

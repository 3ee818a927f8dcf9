package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
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
// the serving invariant (compile once, serve many). All routing
// state shared between runs (lane membership, channel keys, per-node
// send/receive schedules) is computed once and only read afterwards; each
// run allocates its own channels and value environments. Mutating Graph or
// Lanes after the first Execute is not supported.
type Plan struct {
	Graph *graph.Graph
	// Lanes lists each cluster's nodes in execution order.
	Lanes [][]*graph.Node

	// topo is the per-plan routing structure shared by all runs. It is
	// built once on first use; building it is also what keeps concurrent
	// runs off the Graph's lazily-built producer/consumer indexes.
	topoOnce sync.Once
	topo     *planTopo

	// mem is the static memory plan plus per-node release schedule, built
	// once like topo and consulted only by arena-backed runs.
	memOnce sync.Once
	mem     *memState

	// pack is the compile-time-packed constant-weight table (ops.Prepacked
	// per GEMM-shaped node with constant operands), built once like topo;
	// every run reuses the same packed panels.
	packOnce sync.Once
	pack     map[*graph.Node]*ops.Prepacked

	// opCount/opNs are the plan's per-node execution counters: kernel
	// invocations and cumulative kernel nanoseconds, accumulated across
	// every run of the plan for the lifetime of the plan. They are the
	// always-on serving analogue of the offline MeasureCosts pass — live
	// measured per-op costs for /v1/stats and profile-guided
	// recompilation. Allocated once with the topology (dense node index,
	// see planTopo.opIdx); the record path is one kernel timing and two
	// atomic adds per node.
	opCount []atomic.Int64
	opNs    []atomic.Int64

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

// chanKey identifies one cross-lane channel: a produced value and the lane
// consuming it.
type chanKey struct {
	value string
	lane  int
}

// inputSrc describes where one node input comes from at run time. Inputs
// produced earlier in the node's own lane need no action (evalNode finds
// them in the lane environment) and are omitted.
type inputSrc struct {
	name string
	// remote: receive from the producing lane's channel. Otherwise the
	// value is a graph input or initializer, bound from the run's base
	// environment.
	remote bool
	// from is the producing lane of a remote input (wait-span attribution
	// for the timeline recorder); 0 and meaningless when remote is false.
	from int
}

// outputDst describes what to do with one node output beyond storing it in
// the lane environment: the remote lanes to send it to and whether it is a
// graph output to capture.
type outputDst struct {
	name        string
	lanes       []int
	graphOutput bool
}

// planTopo is the run-invariant routing structure of a Plan: everything a
// run needs that depends only on the plan itself. Hoisting it makes
// Plan.Execute cheap to call per request and safe to call concurrently (the
// graph's lazy indexes are only touched here, under the plan's once guard).
type planTopo struct {
	laneOf map[*graph.Node]int
	// keys lists every cross-lane channel a run must allocate.
	keys []chanKey
	// ins/outs give each node its receive and send schedule. Nodes with
	// nothing to do are absent.
	ins  map[*graph.Node][]inputSrc
	outs map[*graph.Node][]outputDst
	// opIdx gives each node (by lane and lane position) its dense index
	// into the plan's op counters, and opNodes maps that index back to the
	// node — precomputed so the lane hot loop records without a map lookup.
	opIdx   [][]int32
	opNodes []*graph.Node
}

// topology returns the plan's routing structure, building it on first use.
func (p *Plan) topology() *planTopo {
	p.topoOnce.Do(func() {
		t := &planTopo{
			laneOf: make(map[*graph.Node]int, len(p.Graph.Nodes)),
			ins:    map[*graph.Node][]inputSrc{},
			outs:   map[*graph.Node][]outputDst{},
		}
		t.opIdx = make([][]int32, len(p.Lanes))
		for li, lane := range p.Lanes {
			t.opIdx[li] = make([]int32, len(lane))
			for ni, n := range lane {
				t.laneOf[n] = li
				t.opIdx[li][ni] = int32(len(t.opNodes))
				t.opNodes = append(t.opNodes, n)
			}
		}
		p.opCount = make([]atomic.Int64, len(t.opNodes))
		p.opNs = make([]atomic.Int64, len(t.opNodes))
		seenKey := map[chanKey]bool{}
		for li, lane := range p.Lanes {
			for _, n := range lane {
				for _, in := range n.Inputs {
					prod := p.Graph.Producer(in)
					switch {
					case prod == nil:
						// Graph input or initializer: bind from base env.
						t.ins[n] = append(t.ins[n], inputSrc{name: in})
					case t.laneOf[prod] != li:
						t.ins[n] = append(t.ins[n], inputSrc{name: in, remote: true, from: t.laneOf[prod]})
						key := chanKey{in, li}
						if !seenKey[key] {
							seenKey[key] = true
							t.keys = append(t.keys, key)
						}
					}
				}
				for _, outName := range n.Outputs {
					dst := outputDst{name: outName, graphOutput: p.Graph.IsGraphOutput(outName)}
					sentTo := map[int]bool{}
					for _, c := range p.Graph.Consumers(outName) {
						if cl := t.laneOf[c]; cl != li && !sentTo[cl] {
							sentTo[cl] = true
							dst.lanes = append(dst.lanes, cl)
						}
					}
					if len(dst.lanes) > 0 || dst.graphOutput {
						t.outs[n] = append(t.outs[n], dst)
					}
				}
			}
		}
		p.topo = t
	})
	return p.topo
}

// memDrop is one reference-count decrement owed when a node completes: the
// managed value's dense index in the run's refs array, and its name (to
// find the tensor in the completing lane's environment).
type memDrop struct {
	idx   int
	value string
}

// memState is the run-invariant arena-release schedule derived from the
// static memory plan (internal/memplan): per node, which managed values
// lose a reference when that node finishes. Like planTopo it is computed
// once per plan and only read afterwards; each run owns a mutable copy of
// refs0.
type memState struct {
	plan *memplan.Plan
	// refs0 seeds each run's reference counts. Zero-use values are seeded
	// with 1 and dropped by their own producer, so every managed value is
	// released by exactly one code path.
	refs0 []int32
	// drops lists the decrements owed at each node's completion: one per
	// managed input occurrence, plus one per zero-use output.
	drops map[*graph.Node][]memDrop
	// inplace marks nodes executed via ops.RunInPlace: the memory plan
	// proves their first input dies with them (memplan.CanWriteInPlace)
	// and the kernel layer has an in-place path (ops.CanRunInPlace). The
	// input buffer's ownership transfers to the output, so no drop is
	// scheduled for it — it is released when the output dies.
	inplace map[*graph.Node]bool
}

// memory returns the plan's release schedule, building it on first use.
// A nil result (analysis failure) disables releasing; arena runs then
// still allocate from the arena but never recycle — safe, just slower.
// NewPlan-validated plans always analyze cleanly.
func (p *Plan) memory() *memState {
	p.memOnce.Do(func() {
		mp, err := memplan.Build(p.Graph, p.Lanes)
		if err != nil {
			return
		}
		m := &memState{
			plan:    mp,
			refs0:   mp.InitialRefs(),
			drops:   make(map[*graph.Node][]memDrop, len(p.Graph.Nodes)),
			inplace: make(map[*graph.Node]bool),
		}
		for _, lane := range p.Lanes {
			for _, n := range lane {
				// In-place execution needs both the liveness proof and a
				// kernel path. It composes with the prepack table: a
				// FusedElementwise node with a decoded stage program runs
				// via ops.RunPrepackedInPlace (weight-packed ops are never
				// in-place capable).
				inplace := ops.CanRunInPlace(n.OpType) && mp.CanWriteInPlace(n.Name)
				m.inplace[n] = inplace
				for ii, in := range n.Inputs {
					if inplace && ii == 0 {
						continue // ownership transfers to the output
					}
					if i := mp.IndexOf(in); i >= 0 {
						m.drops[n] = append(m.drops[n], memDrop{i, in})
					}
				}
				for _, out := range n.Outputs {
					if i := mp.IndexOf(out); i >= 0 && mp.UseCount(out) == 0 {
						m.refs0[i] = 1
						m.drops[n] = append(m.drops[n], memDrop{i, out})
					}
				}
			}
		}
		p.mem = m
	})
	return p.mem
}

// MemoryPlan returns the plan's static memory plan (use counts, in-place
// eligibility, peak estimates), building it on first use. Nil when the
// graph defies analysis, which cannot happen for plans built by
// NewPlan/NewPlanOrdered.
func (p *Plan) MemoryPlan() *memplan.Plan {
	if m := p.memory(); m != nil {
		return m.plan
	}
	return nil
}

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
}

// prepacked returns the plan's constant-weight packing table, building it
// on first use: every GEMM-shaped node whose weight operand is a graph
// initializer gets its panels packed once, here, so no run ever repacks
// them. Names that are also declared graph inputs are skipped — a feed
// could override the initializer value there.
func (p *Plan) prepacked() map[*graph.Node]*ops.Prepacked {
	p.packOnce.Do(func() {
		tbl := map[*graph.Node]*ops.Prepacked{}
		shared := map[packKey]*ops.Prepacked{}
		for _, n := range p.Graph.Nodes {
			if n.OpType == "FusedElementwise" {
				// No constant operands to pack — the prepared state is the
				// decoded stage program, one per node (replicas are cheap).
				if pp := ops.PrepackWeights(n.OpType, n.Attrs, make([]*tensor.Tensor, len(n.Inputs))); pp != nil {
					tbl[n] = pp
				}
				continue
			}
			constIn := make([]*tensor.Tensor, len(n.Inputs))
			any := false
			for i, name := range n.Inputs {
				if t := p.Graph.Initializers[name]; t != nil && !p.Graph.IsGraphInput(name) {
					constIn[i] = t
					any = true
				}
			}
			if !any || len(constIn) < 2 || constIn[1] == nil {
				continue
			}
			key := packKey{
				op:     n.OpType,
				weight: constIn[1],
				transB: n.Attrs.Int("transB", 0) != 0,
				groups: n.Attrs.Int("group", 1),
			}
			if pp, seen := shared[key]; seen {
				if pp != nil {
					tbl[n] = pp
				}
				continue
			}
			pp := ops.PrepackWeights(n.OpType, n.Attrs, constIn)
			shared[key] = pp
			if pp != nil {
				tbl[n] = pp
			}
		}
		p.pack = tbl
	})
	return p.pack
}

// PrepackWeights builds the plan's compile-time prepack table (idempotent;
// Compile calls it eagerly so Session.Run never pays it) and reports how
// many nodes got packed weight operands and their total packed bytes.
// FusedElementwise entries (decoded stage programs, no weight panels) are
// excluded from the count.
func (p *Plan) PrepackWeights() (nodes int, bytes int64) {
	tbl := p.prepacked()
	seen := make(map[*ops.Prepacked]bool, len(tbl))
	for _, pp := range tbl {
		if !pp.HasWeights() {
			continue
		}
		nodes++
		if !seen[pp] {
			seen[pp] = true
			bytes += pp.Bytes() // replicas share one packing; count it once
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
	topo := p.topology()
	agg := make(map[string]obs.OpTotal)
	for i, n := range topo.opNodes {
		c := p.opCount[i].Load()
		if c == 0 {
			continue
		}
		t := agg[n.OpType]
		t.Op = n.OpType
		t.Count += c
		t.TotalNs += p.opNs[i].Load()
		agg[n.OpType] = t
	}
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

// message is one cross-cluster tensor transfer.
type message struct {
	value string
	t     *tensor.Tensor
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
	seen := map[*graph.Node]bool{}
	total := 0
	sorted := make([][]*graph.Node, len(lanes))
	for i, lane := range lanes {
		cp := append([]*graph.Node(nil), lane...)
		insertionSortByPos(cp, pos)
		sorted[i] = cp
		for _, n := range cp {
			if seen[n] {
				return nil, fmt.Errorf("exec: node %s appears in multiple lanes", n.Name)
			}
			seen[n] = true
			total++
		}
	}
	if total != len(g.Nodes) {
		return nil, fmt.Errorf("exec: lanes cover %d nodes, graph has %d", total, len(g.Nodes))
	}
	return &Plan{Graph: g, Lanes: sorted}, nil
}

// NewPlanOrdered builds a Plan that preserves the given lane orders exactly
// (hyperclustering's sample interleaving is meaningful order), verifying
// that the lanes partition the graph and that executing each lane in its
// stated order cannot deadlock across lanes.
func NewPlanOrdered(g *graph.Graph, lanes [][]*graph.Node) (*Plan, error) {
	seen := map[*graph.Node]bool{}
	total := 0
	for _, lane := range lanes {
		for _, n := range lane {
			if seen[n] {
				return nil, fmt.Errorf("exec: node %s appears in multiple lanes", n.Name)
			}
			seen[n] = true
			total++
		}
	}
	if total != len(g.Nodes) {
		return nil, fmt.Errorf("exec: lanes cover %d nodes, graph has %d", total, len(g.Nodes))
	}
	// A lane order that stalls a zero-cost simulation would deadlock the
	// executor, so the plan is rejected.
	p := &Plan{Graph: g, Lanes: lanes}
	if _, err := Simulate(p, zeroCost{}); err != nil {
		return nil, err
	}
	return p, nil
}

func insertionSortByPos(ns []*graph.Node, pos map[*graph.Node]int) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && pos[ns[j]] < pos[ns[j-1]]; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

// Execute is the plan's one entry point: a parallel run under ctx — one
// goroutine per lane, a channel per cross-lane (value, consumer-lane) pair,
// mirroring the paper's Algorithm 4 runtime of queue.put/queue.get message
// passing between Python processes — returning the graph outputs. What the
// run did is recorded by the plan's op counters (OpTotals) and, on a
// sampled run, its timeline (EnableTimeline).
//
// With a non-nil ar every kernel output is allocated from the arena and each
// intermediate's storage goes back to it the moment its statically-known
// last consumer finishes (the release schedule of internal/memplan); graph
// outputs escape to the caller as ordinary heap-owned tensors. Concurrent runs must
// each pass their own (or a pooled, currently idle) arena; keeping one alive
// across sequential runs is what makes steady-state inference allocation-
// free for intermediates. A nil ar runs on the heap.
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
	base, err := seedEnv(p.Graph, feeds)
	if err != nil {
		return nil, err
	}
	topo := p.topology()
	pack := p.prepacked()
	// Timeline sampling decision for this run: cap stays nil on the default
	// path (no recorder, or an unsampled run), and every record site below
	// is a nil-safe no-op then — the hot loop's zero-allocation contract.
	rec := p.tl.Load().StartRun(len(p.Lanes))

	// Arena mode: a private copy of the memory plan's reference counts.
	// Lane goroutines decrement the counts of a node's managed inputs once
	// the node completes; whoever performs a value's final decrement owns
	// the release. alloc is the allocator handed to every kernel.
	var (
		mem   *memState
		refs  []int32
		alloc tensor.Allocator
	)
	if ar != nil {
		alloc = ar
		if mem = p.memory(); mem != nil {
			refs = append([]int32(nil), mem.refs0...)
		}
	}

	// One channel per (produced value, consuming lane) pair, freshly
	// allocated per run so concurrent runs never share messages. The
	// producer sends once; the consumer receives once and caches it in its
	// local environment, so multiple local consumers are satisfied. One
	// message per channel per run means a one-slot buffer never blocks a
	// send.
	chans := make(map[chanKey]chan message, len(topo.keys))
	for _, key := range topo.keys {
		chans[key] = make(chan message, 1)
	}

	runs := make([]laneRun, len(p.Lanes))
	var (
		outMu   sync.Mutex
		outVals = make(Env, len(p.Graph.Outputs))
	)
	// abort is closed on the first lane failure so blocked receivers in
	// other lanes unblock instead of deadlocking.
	abort := make(chan struct{})
	var abortOnce sync.Once
	fail := func(li int, err error) {
		runs[li].err = err
		abortOnce.Do(func() { close(abort) })
	}
	var wg sync.WaitGroup
	for li, lane := range p.Lanes {
		wg.Add(1)
		go func(li int, lane []*graph.Node) {
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
			// Lane-local environment: shared read-only base + local values.
			env := make(Env, len(lane)*2)
			for ni, n := range lane {
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
				// Bind base values and receive remote inputs not yet local.
				for _, src := range topo.ins[n] {
					if _, ok := env[src.name]; ok {
						continue
					}
					if !src.remote {
						if t, ok := base[src.name]; ok {
							env[src.name] = t
						}
						continue // else evalNode reports the missing input
					}
					ch := chans[chanKey{src.name, li}]
					if ch == nil {
						fail(li, fmt.Errorf("exec: lane %d: no channel for %q", li, src.name))
						return
					}
					// Wait time is only recorded into a sampled timeline, so
					// an unsampled run takes no timestamps here.
					var waitStart time.Time
					if rec != nil {
						waitStart = time.Now()
					}
					select {
					case msg := <-ch:
						env[msg.value] = msg.t
						if rec != nil {
							rec.Wait(li, src.from, src.name, waitStart, time.Since(waitStart))
						}
					case <-abort:
						return
					case <-done: // nil (blocks forever) without a cancelable ctx
						fail(li, ctx.Err())
						return
					}
				}
				busyStart := time.Now()
				inplace := refs != nil && mem.inplace[n]
				if err := evalNode(p.Graph, n, env, alloc, pack[n], inplace); err != nil {
					fail(li, err)
					return
				}
				busy := time.Since(busyStart)
				// Accumulate the plan's per-node execution counters: two
				// lock-free atomic ops and no allocation.
				idx := topo.opIdx[li][ni]
				p.opCount[idx].Add(1)
				p.opNs[idx].Add(int64(busy))
				rec.Op(li, n.Name, n.OpType, busyStart, busy)
				// Send outputs needed by remote lanes; capture graph outputs.
				for _, dst := range topo.outs[n] {
					for _, cl := range dst.lanes {
						chans[chanKey{dst.name, cl}] <- message{dst.name, env[dst.name]}
						if rec != nil {
							rec.Send(li, cl, dst.name, time.Now())
						}
					}
					if dst.graphOutput {
						outMu.Lock()
						outVals[dst.name] = env[dst.name]
						outMu.Unlock()
					}
				}
				// Release the node's dead inputs (and dead-on-arrival
				// outputs) back to the run's arena. This runs after the
				// sends: a node's own outputs still carry their consumers'
				// references, so only values whose global count reaches
				// zero here — no reader left in any lane — are recycled.
				if refs != nil {
					for _, d := range mem.drops[n] {
						if atomic.AddInt32(&refs[d.idx], -1) == 0 {
							tensor.ReleaseData(ar, env[d.value])
						}
					}
				}
				runs[li].done = ni + 1
			}
		}(li, lane)
	}
	wg.Wait()
	// Kernel failures outrank cancellation: a lane that died for a real
	// reason is the root cause even if the caller also gave up waiting.
	// Pure cancellations surface as the bare ctx error.
	var runErr error
	for li, r := range runs {
		switch err := r.err; {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if runErr == nil {
				runErr = err
			}
		default:
			runErr = fmt.Errorf("exec: lane %d failed: %w", li, err)
		}
		if runErr != nil && !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded) {
			break
		}
	}
	if runErr != nil {
		// Cancellation-class aborts carry the stall diagnostic: which op
		// each unfinished lane was at when the run unwound. This is the
		// runtime twin of NewPlanOrdered's compile-time stuck list, and it
		// rides the error into logs and /v1/trace spans. Allocation happens
		// only on this already-failed path.
		if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
			if stuck := p.stuckAt(runs); len(stuck) > 0 {
				runErr = &StallError{Err: runErr, Stuck: stuck}
			}
		}
		// The unwound run abandons its in-flight tensors to the GC; take
		// their bytes out of the arena's in-use accounting so the gauge
		// reflects reality. Safe here: every lane has exited.
		if ar != nil {
			ar.AbandonOutstanding()
		}
		// A failed sampled run still commits its partial timeline (marked
		// incomplete): seeing where lanes stopped is diagnostic signal.
		rec.Commit(time.Since(start), false)
		return nil, runErr
	}

	// Every lane has exited, so outVals is the caller's from here on.
	for _, v := range outVals {
		// Node-produced graph outputs escape to the caller: drop them from
		// the arena's working-set accounting so long-lived arenas report
		// the real steady-state footprint, not a per-request ratchet.
		if ar != nil {
			ar.NoteEscape(v.Data())
		}
	}
	for _, o := range p.Graph.Outputs {
		if _, ok := outVals[o.Name]; !ok {
			if t, ok := base[o.Name]; ok {
				outVals[o.Name] = t // output aliased to an input/initializer
				continue
			}
			return nil, fmt.Errorf("exec: graph output %q was not produced", o.Name)
		}
	}
	rec.Commit(time.Since(start), true)
	return outVals, nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ramiel "repro"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/memplan"
	"repro/internal/obs"
	"repro/internal/onnx"
	"repro/internal/passes"
	"repro/internal/serve"
)

// keepOpSpans is how many traced runs keep one span per operator; later
// runs keep only the merged cover of their op spans, which is all the
// self-time arithmetic needs and keeps a 380-node model's trace small.
const keepOpSpans = 8

// runTrace turns the executor's own timeline recorder (one sampled run per
// run while it is attached) into spans and per-run numbers.
type runTrace struct {
	tr       *tracer
	par, one *ramiel.Program
	lastSeq  [2]int64
	kept     int
	opsStart []ramiel.OpTotal
	parRuns  int

	opBusy, recvWait, laneBusy samples
	critOp, critWait, dispatch samples
	sends                      int
}

func newRunTrace(tr *tracer, par, oneLane *ramiel.Program) *runTrace {
	par.EnableTimeline(1, 2)
	oneLane.EnableTimeline(1, 2)
	return &runTrace{tr: tr, par: par, one: oneLane, opsStart: par.OpTotals()}
}

func (rt *runTrace) stop() {
	rt.par.Plan.DisableTimeline()
	rt.one.Plan.DisableTimeline()
}

// note files the run that just finished on the given side.
func (rt *runTrace) note(par bool, start, stop time.Time) {
	prog, side := rt.one, 0
	if par {
		prog, side = rt.par, 1
	}
	r := prog.LastTimeline()
	if r == nil || r.Seq == rt.lastSeq[side] || !r.Complete {
		return
	}
	rt.lastSeq[side] = r.Seq
	busy := r.OpTimeNs()
	if !par {
		// On one lane nothing waits, so wall minus kernel time is what the
		// executor spends per node on everything that is not the kernel.
		rt.dispatch = append(rt.dispatch, float64(r.WallNs-busy)/1e3/float64(len(prog.Graph.Nodes)))
		return
	}
	rt.parRuns++
	rt.opBusy.add(time.Duration(busy))
	rt.recvWait.add(time.Duration(r.WaitTimeNs()))
	rt.laneBusy = append(rt.laneBusy, float64(busy)/float64(int64(r.Lanes)*r.WallNs))
	rt.sends = 0
	for _, s := range r.Spans {
		if s.Kind == obs.SpanSend {
			rt.sends++
		}
	}
	if len(rt.critOp) < 32 {
		if cp, err := prog.CriticalPathFromTimeline(r); err == nil {
			rt.critOp.add(time.Duration(cp.OpNs))
			rt.critWait.add(time.Duration(cp.WaitNs))
		}
	}

	// Spans: the run, the Session.Run call under it, the ops under that.
	tr := rt.tr
	s, e := tr.at(start), tr.at(stop)
	root := tr.add(0, 0, "rambench", "par_run", s, e, false)
	call := tr.add(root, root, "exec", "Session.Run", s, e, false)
	base := tr.at(r.Start)
	var ivs [][2]int64
	for _, sp := range r.Spans {
		if sp.Kind != obs.SpanOp {
			continue
		}
		if rt.kept < keepOpSpans {
			tr.add(call, root, "ops", sp.Op+" "+sp.Name, base+sp.StartNs, base+sp.EndNs(), false)
		}
		ivs = append(ivs, [2]int64{base + sp.StartNs, base + sp.EndNs()})
	}
	if rt.kept >= keepOpSpans {
		tr.add(call, root, "ops", "ops (merged cover)", s, s+covered(s, e, ivs), true)
	}
	rt.kept++
}

func (rt *runTrace) report(m *metricSet) {
	n := len(rt.opBusy)
	m.put("exec.op_busy_ms", rt.opBusy.median(), n)
	m.put("exec.recv_wait_ms", rt.recvWait.median(), n)
	m.put("exec.lane_busy_share", rt.laneBusy.median(), n)
	m.put("exec.cross_lane_sends", float64(rt.sends), 1)
	m.put("exec.critpath_op_ms", rt.critOp.median(), len(rt.critOp))
	m.put("exec.critpath_wait_ms", rt.critWait.median(), len(rt.critWait))
	m.put("exec.dispatch_us_per_node", rt.dispatch.median(), len(rt.dispatch))

	// Where the parallel plan's kernel time went: the program's own per-op
	// counters, now minus when the recorder was attached. The one-lane
	// program is another plan with its own counters, so this is the parallel
	// runs alone.
	byOp := map[string]float64{}
	for _, t := range rt.par.OpTotals() {
		byOp[t.Op] += float64(t.TotalNs)
	}
	for _, t := range rt.opsStart {
		byOp[t.Op] -= float64(t.TotalNs)
	}
	named := map[string]string{
		"Conv": "ops.conv_ms", "MatMul": "ops.matmul_ms", "Gemm": "ops.gemm_ms",
		"FusedElementwise": "ops.fused_elementwise_ms",
	}
	sums := map[string]float64{}
	for op, ns := range byOp {
		name, ok := named[op]
		if !ok {
			name = "ops.other_ms"
		}
		sums[name] += ns
	}
	for _, name := range []string{"ops.conv_ms", "ops.matmul_ms", "ops.gemm_ms", "ops.fused_elementwise_ms", "ops.other_ms"} {
		if rt.parRuns > 0 {
			m.put(name, sums[name]/1e6/float64(rt.parRuns), rt.parRuns)
		}
	}
	if cal := rt.par.Calibrate(); cal != nil {
		m.put("cost.spearman_rho", cal.RankCorrelation, cal.Nodes)
	}
}

// reportServing reads what the serving layers said about the open loop's
// requests. Nothing is reported for the in-process path.
func (b *bench) reportServing(open loopStats) {
	m, t, ins := b.m, b.t, b.ins
	m.put("gen.offered_rps", t.spec.RateRPS, open.due)
	if t.spec.Path == pathSession {
		return
	}
	var wire, queue, batchWait, execMs, route samples
	var batch, attempts, spills, n, sheds float64
	for _, info := range open.infos {
		if info.shed {
			sheds++
		}
		if !info.served {
			continue
		}
		n++
		over := info.callDur - info.meta.Latency
		if t.spec.Path == pathWire {
			wire.add(over)
		} else {
			route = append(route, float64(over)/1e3)
			attempts += float64(info.route.Attempts)
			if info.route.Spilled {
				spills++
			}
		}
		queue.add(info.meta.QueueWait)
		batchWait.add(info.meta.BatchWait)
		execMs.add(info.meta.Exec)
		batch += float64(info.meta.BatchSize)
	}
	if n == 0 {
		return
	}
	cnt := int(n)
	m.put("serve.queue_wait_ms", queue.median(), cnt)
	m.put("serve.batch_wait_ms", batchWait.median(), cnt)
	m.put("serve.exec_ms", execMs.median(), cnt)
	m.put("serve.mean_batch", batch/n, cnt)
	if t.spec.Path == pathWire {
		m.put("serve.wire_ms", wire.median(), cnt)
		m.put("serve.shed_share", sheds/float64(open.due), open.due)
	} else {
		m.put("fleet.route_us", route.median(), cnt)
		m.put("fleet.attempts_per_req", attempts/n, cnt)
		m.put("fleet.spill_share", spills/n, cnt)
		m.put("fleet.shed_share", sheds/float64(open.due), open.due)
	}
	in, reqs := 0, b.opt.size.countFor(open.latency.median())
	allocs, _ := allocsPer(reqs, func() {
		_, _, _ = t.do(context.Background(), 0, &ins[in%len(ins)], nil, 0) // counted, not checked: the loops above check
		in++
	})
	m.put("serve.allocs_per_req", allocs, reqs)
}

// allocsPer runs f n times on this goroutine and returns heap objects and
// bytes allocated per call, process-wide.
func allocsPer(n int, f func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// timeIt calls f until budget is spent, at least min times, and returns
// the timings. prep, when not nil, runs before each call outside the timing.
func timeIt(budget time.Duration, min int, prep, f func()) samples {
	var s samples
	end := time.Now().Add(budget)
	for i := 0; i < min || time.Now().Before(end); i++ {
		if prep != nil {
			prep()
		}
		start := time.Now()
		f()
		s.add(time.Since(start))
	}
	return s
}

// measureLayers calls single layers directly, from outside, through their
// exported functions, and reads the reports and counters they export. The
// compile pipeline is replayed stage by stage in the order ramiel.Compile
// runs it, each stage on the graph the stage before left.
func (b *bench) measureLayers(budget time.Duration, runMs float64) {
	spec, g, prog, ins, size, m, tl := b.spec, b.g, b.prog, b.ins, b.opt.size, b.m, &b.tl
	slice := budget / 12
	ctx := context.Background()

	// onnx: a real file, inside the checkout.
	if dir, err := os.MkdirTemp(".", ".rambench-tmp-"); err == nil {
		path := filepath.Join(dir, "model.json")
		save := timeIt(slice/2, size.atLeast(2), nil, func() { err = onnx.SaveGraph(g, path) })
		if st, serr := os.Stat(path); err == nil && serr == nil {
			m.put("onnx.save_ms", save.median(), len(save))
			m.put("onnx.file_bytes", float64(st.Size()), 1)
			load := timeIt(slice/2, size.atLeast(2), nil, func() { _, err = onnx.LoadGraph(path) })
			if err == nil {
				m.put("onnx.load_ms", load.median(), len(load))
			}
		}
		if err != nil {
			tl.fail(fmt.Errorf("onnx round trip: %w", err))
		}
		_ = os.RemoveAll(dir) // scratch; a leftover is harmless and git-ignored
	} else {
		tl.fail(fmt.Errorf("scratch directory: %w", err))
	}

	b.replayCompile(slice * 3)

	if pm, err := prog.Metrics(); err == nil {
		m.put("cost.parallelism", pm.Parallelism, 1)
	}
	if sim, err := prog.Simulate(); err == nil {
		m.put("cost.sim_speedup_x", sim.Speedup(), 1)
	}
	if est, err := prog.MemoryEstimate(); err == nil {
		m.put("memplan.peak_live_bytes", float64(est.PeakLiveBytes), 1)
		m.put("memplan.scratch_bytes", float64(est.ScratchBytes), 1)
	}

	// A fresh session's arena over a few hundred runs: how much of its
	// traffic the free lists served, and what it had to take from the heap.
	runs := size.countFor(runMs)
	sess := prog.NewSession()
	n := 0
	objects, bytes := allocsPer(runs, func() {
		in := &ins[n%len(ins)]
		n++
		outs, err := sess.Run(ctx, in.feeds)
		tl.check(outs, err, in)
	})
	m.put("exec.allocs_per_run", objects, runs)
	m.put("exec.bytes_per_run", bytes, runs)
	as := sess.Arena().Stats().Snapshot()
	m.put("tensor.arena_hit_share", float64(as.Hits)/float64(as.Gets), int(as.Gets))
	m.put("tensor.arena_peak_bytes", float64(as.PeakBytes), 1)
	m.put("tensor.arena_fresh_bytes", float64(as.AllocBytes), 1)

	// hyper: the batch-4 program against four batch-1 runs.
	var hp *ramiel.Program
	var err error
	hb := timeIt(slice, size.atLeast(3), nil, func() { hp, err = prog.Hypercluster(4, false) })
	if err == nil {
		m.put("hyper.build_ms", hb.median(), len(hb))
		feeds := ramiel.Env{}
		for s := 0; s < 4; s++ {
			for name, t := range ins[s%len(ins)].feeds {
				feeds[ramiel.SampleValueName(name, s)] = t
			}
		}
		hs := hp.NewSession()
		var outs ramiel.Env
		run := timeIt(slice, size.atLeast(5), nil, func() { outs, err = hs.Run(ctx, feeds) })
		if err == nil {
			m.put("hyper.batch4_sample_ms", run.median()/4, len(run))
			for s := 0; s < 4; s++ {
				got := ramiel.Env{}
				for name, t := range outs {
					if ramiel.SampleIndexOf(name) == s {
						got[ramiel.BaseValueName(name)] = t
					}
				}
				tl.check(got, nil, &ins[s%len(ins)])
			}
		}
	}
	if err != nil {
		tl.fail(fmt.Errorf("hypercluster: %w", err))
	}

	var src string
	gen := timeIt(slice, size.atLeast(3), nil, func() { src, err = prog.GenerateGo(ramiel.CodegenOptions{EmitMain: true}) })
	if err != nil {
		tl.fail(fmt.Errorf("codegen: %w", err))
	} else {
		m.put("codegen.generate_ms", gen.median(), len(gen))
		m.put("codegen.source_bytes", float64(len(src)), 1)
	}

	// serve: the JSON cost of this workload's tensors, on the same bodies
	// the wire client sends.
	var req serve.InferRequest
	dec := timeIt(slice, size.atLeast(5), func() { req = serve.InferRequest{} }, func() { err = json.Unmarshal(ins[0].body, &req) })
	if err != nil {
		tl.fail(fmt.Errorf("decoding request body: %w", err))
	}
	m.put("serve.decode_ms", dec.median(), len(dec))
	resp := serve.InferResponse{Model: spec.Model, Outputs: map[string]serve.TensorJSON{}}
	for name, t := range ins[0].ref {
		resp.Outputs[name] = serve.TensorJSON{Shape: t.Shape(), Data: t.Data()}
	}
	enc := timeIt(slice, size.atLeast(5), nil, func() { _, err = json.Marshal(resp) })
	if err != nil {
		tl.fail(fmt.Errorf("encoding reply: %w", err))
	}
	m.put("serve.encode_ms", enc.median(), len(enc))

	measureKernels(size, slice*2, m)
}

// replayCompile times each stage of the compile pipeline on its own and
// reads the stage's report.
func (b *bench) replayCompile(budget time.Duration) {
	spec, g, m, tl, atLeast := b.spec, b.g, b.m, &b.tl, b.opt.size.atLeast(3)
	var prune, fuse, clone, cluster, merge, plan, prepack, mem samples
	model := cost.DefaultModel()
	end := time.Now().Add(budget)
	var err error
	for i := 0; err == nil && (i < atLeast || time.Now().Before(end)); i++ {
		work := g.Clone()
		stage := func(out *samples, f func() error) {
			if err != nil {
				return
			}
			start := time.Now()
			err = f()
			out.add(time.Since(start))
		}
		var pr passes.PruneReport
		if spec.Prune {
			stage(&prune, func() (e error) { pr, e = passes.Prune(work); return })
		}
		var fr passes.FusionReport
		stage(&fuse, func() (e error) { fr, e = passes.Fuse(work); return })
		// Cloning is in no workload's pipeline; it is timed on a copy so
		// the pass stays in the trajectory without changing the plan.
		side := work.Clone()
		var cr passes.CloneReport
		stage(&clone, func() (e error) { cr, e = passes.CloneTasks(side, model, passes.DefaultCloneOptions()); return })
		var cl *core.Clustering
		stage(&cluster, func() (e error) { cl, e = core.LinearCluster(work, model); return })
		if err != nil {
			break
		}
		pre := len(cl.Clusters)
		stage(&merge, func() error { cl.MergeClusters(); return nil })
		lanes := make([][]*ramiel.Node, len(cl.Clusters))
		for i, c := range cl.Clusters {
			lanes[i] = c.Nodes
		}
		var p *exec.Plan
		stage(&plan, func() (e error) { p, e = exec.NewPlan(work, lanes); return })
		stage(&mem, func() (e error) { _, e = memplan.Build(work, lanes); return })
		var packed int64
		stage(&prepack, func() error { _, packed = p.PrepackWeights(); return nil })

		m.put("passes.folded_nodes", float64(pr.Fold.Folded), 1)
		m.put("passes.dce_removed_nodes", float64(pr.DCE.RemovedNodes), 1)
		m.put("passes.bn_folded", float64(fr.BNFolded), 1)
		m.put("passes.epilogues", float64(fr.Epilogues), 1)
		m.put("passes.fused_chain_nodes", float64(fr.ChainNodes), 1)
		m.put("passes.cloned_nodes", float64(cr.ClonedNodes), 1)
		m.put("passes.nodes_after", float64(len(work.Nodes)), 1)
		m.put("core.clusters_pre_merge", float64(pre), 1)
		m.put("core.clusters_post_merge", float64(len(cl.Clusters)), 1)
		m.put("exec.prepack_bytes", float64(packed), 1)
	}
	if err != nil {
		tl.fail(fmt.Errorf("compile replay: %w", err))
		return
	}
	if spec.Prune {
		m.put("passes.prune_ms", prune.median(), len(prune))
	}
	m.put("passes.fuse_ms", fuse.median(), len(fuse))
	m.put("passes.clone_ms", clone.median(), len(clone))
	m.put("core.cluster_ms", cluster.median(), len(cluster))
	m.put("core.merge_ms", merge.median(), len(merge))
	m.put("exec.plan_ms", plan.median(), len(plan))
	m.put("memplan.build_ms", mem.median(), len(mem))
	m.put("exec.prepack_ms", prepack.median(), len(prepack))
}

// measureKernels calls the GEMM core and im2col directly. Rates are
// computed from the shapes: 2·m·n·k operations for GEMM, the bytes of the
// patch matrix written plus the image read for im2col.
func measureKernels(size sizing, budget time.Duration, m *metricSet) {
	fill := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(i%13) * 0.25
		}
		return v
	}
	gemm := func(name string, mm, nn, kk int, packed bool) {
		a, b, c := fill(mm*kk), fill(kk*nn), make([]float32, mm*nn)
		call := func() { kernels.Gemm(1, mm, nn, kk, a, kk, false, b, nn, false, c, nil) }
		if packed {
			pb := kernels.PrepackB(b, kk, nn, nn, false)
			call = func() { kernels.GemmPackedB(1, mm, a, kk, false, pb, c, nil) }
		}
		s := timeIt(budget/4, size.atLeast(20), nil, call)
		m.put(name, 2*float64(mm)*float64(nn)*float64(kk)/(s.median()*1e6), len(s))
	}
	gemm("kernels.gemm_512_gflops", 512, 512, 512, false)
	gemm("kernels.gemm_small_gflops", 16, 32, 32, false) // bert's projection shape
	gemm("kernels.gemm_packed_512_gflops", 512, 512, 512, true)

	// A 3×3 stride-1 pad-1 convolution's patch matrix at 64 channels, 56×56.
	const ch, hw, k = 64, 56, 3
	x := fill(ch * hw * hw)
	col := make([]float32, kernels.Im2colRows(ch, k, k)*hw*hw)
	s := timeIt(budget/4, size.atLeast(20), nil, func() { kernels.Im2col(col, x, ch, hw, hw, k, k, 1, 1, 1, 1, hw, hw) })
	m.put("kernels.im2col_gbps", 4*float64(len(col)+len(x))/(s.median()*1e6), len(s))
}

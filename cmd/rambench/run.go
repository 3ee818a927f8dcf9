package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	ramiel "repro"
	"repro/internal/exec"
)

// result is everything one run of one workload reports.
type result struct {
	Workload  string
	Traced    bool
	Attempted int64
	Failed    int64
	FirstErr  string
	Metrics   metricSet
	// Invalid is set when the generator itself ran late enough to distort
	// the open-loop latencies; such a run is not a measurement.
	Invalid string
	Spans   []span
}

// tally counts operations and keeps the first failure for the report.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	first     string
}

func (t *tally) fail(err error) {
	t.failed.Add(1)
	t.mu.Lock()
	if t.first == "" {
		t.first = err.Error()
	}
	t.mu.Unlock()
}

// check counts one operation and compares its outputs with the reference.
func (t *tally) check(outs ramiel.Env, err error, in *input) reply {
	t.attempted.Add(1)
	if err != nil {
		t.fail(err)
		return reply{err: err}
	}
	if outs == nil {
		return reply{} // reply not sampled for checking
	}
	if err := sameOutputs(outs, in.ref); err != nil {
		t.fail(fmt.Errorf("output mismatch: %w", err))
		return reply{mismatch: true}
	}
	return reply{}
}

// liveHeapMB is the heap still reachable after five collections: weights,
// packed panels, plans, and arenas that sessions hold. Sessions a server
// parks in a sync.Pool are a cache the collector may drop, and how many of
// them survive one or two collections depends on scheduling (none, one or
// two 6 MB arenas on serve_wire); five empty the pools every time.
func liveHeapMB() float64 {
	for i := 0; i < 5; i++ {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func share(seconds, part float64) time.Duration {
	return time.Duration(seconds * part * float64(time.Second))
}

// runWorkload runs one workload once. Untraced it reports the end-to-end
// metrics; traced it reports the per-layer ones and keeps the spans.
func runWorkload(spec workloadSpec, opt options) (res *result, err error) {
	size := opt.size
	if size.imageCap > 0 && spec.ImageSize > size.imageCap {
		spec.ImageSize = size.imageCap
	}
	res = &result{Workload: spec.Name, Traced: opt.traced}
	b := &bench{spec: spec, opt: opt, m: &res.Metrics}
	if opt.traced {
		b.tr = newTracer()
	}
	defer func() {
		if cerr := b.closeTarget(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	var buildMs samples
	for i := 0; i < 5; i++ {
		start := time.Now()
		if b.g, err = ramiel.BuildModel(spec.Model, ramiel.ModelConfig{ImageSize: spec.ImageSize}); err != nil {
			return nil, err
		}
		buildMs.add(time.Since(start))
	}
	if b.ins, err = makeInputs(spec, b.g, opt.seed, size.inputs); err != nil {
		return nil, err
	}

	// The heap is read after the first set-up, while it is the only one
	// there has been: a closed server's goroutines can outlive close() by a
	// moment and would count as a second copy of the weights.
	heapBefore := liveHeapMB()
	if err = b.setUp(); err != nil {
		return nil, err
	}
	liveHeap := liveHeapMB() - heapBefore
	if err = b.compile(size.compileCalls / size.rounds); err != nil {
		return nil, err
	}
	b.checkFirstOutputs()

	if !opt.traced {
		err = b.untraced(liveHeap)
	} else {
		b.m.put("models.build_ms", buildMs.median(), len(buildMs))
		b.traced()
		res.Spans = b.tr.snapshot()
	}
	res.Invalid = b.invalid
	res.Attempted, res.Failed, res.FirstErr = b.tl.attempted.Load(), b.tl.failed.Load(), b.tl.first
	return res, err
}

// bench is the state of one run of one workload.
type bench struct {
	spec workloadSpec
	opt  options
	m    *metricSet
	tr   *tracer
	tl   tally

	g   *ramiel.Graph
	ins []input

	t       *target // the serving or session target, set up and warm
	setupS  samples
	invalid string

	compileMs samples
	prog      *ramiel.Program // ramiel.Compile of g with the workload's options
	oneLane   *ramiel.Program // the same compiled graph on a one-lane plan
	par, seq  *ramiel.Session
}

func (b *bench) closeTarget() error {
	if b.t == nil {
		return nil
	}
	t := b.t
	b.t = nil
	return t.close()
}

// setUp replaces the target with a fresh one, from nothing, and times it.
func (b *bench) setUp() error {
	if err := b.closeTarget(); err != nil {
		return fmt.Errorf("closing target: %w", err)
	}
	start := time.Now()
	t, err := setUp(b.spec, b.ins, b.tr, b.opt.size.warmup)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.setupS = append(b.setupS, time.Since(start).Seconds())
	b.t = t
	return nil
}

// compile times n ramiel.Compile calls and keeps the first program ever
// compiled, with sessions on it and on its one-lane twin.
func (b *bench) compile(n int) error {
	for i := 0; i < n; i++ {
		start := time.Now()
		prog, err := ramiel.Compile(b.g, compileOpts(b.spec)...)
		if err != nil {
			return err
		}
		b.compileMs.add(time.Since(start))
		if b.prog == nil {
			b.prog = prog
		}
	}
	if b.par != nil {
		return nil
	}
	// The serial baseline is the same compiled graph on a one-lane plan,
	// run through the same Session path (arena, prepacked weights, in-place
	// ops) as the parallel plan — not Program.RunSequential, which runs on
	// the heap and packs weights on every call.
	onePlan, err := exec.SequentialPlan(b.prog.Graph)
	if err != nil {
		return err
	}
	onePlan.PrepackWeights()
	b.oneLane = &ramiel.Program{Graph: b.prog.Graph, Plan: onePlan}
	b.par, b.seq = b.prog.NewSession(), b.oneLane.NewSession()
	return nil
}

// checkFirstOutputs warms both sessions, checking every output against the
// reference, and at the seed the golden files were written for compares the
// first input's outputs on every path with those.
func (b *bench) checkFirstOutputs() {
	ctx := context.Background()
	for _, s := range []*ramiel.Session{b.par, b.seq} {
		for i := 0; i < b.opt.size.warmup; i++ {
			in := &b.ins[i%len(b.ins)]
			outs, err := s.Run(ctx, in.feeds)
			b.tl.check(outs, err, in)
		}
	}
	if !b.opt.size.golden || b.opt.seed != 1 {
		return
	}
	in := &b.ins[0]
	for _, run := range []func() (ramiel.Env, error){
		func() (ramiel.Env, error) { return b.par.Run(ctx, in.feeds) },
		func() (ramiel.Env, error) { return b.seq.Run(ctx, in.feeds) },
		func() (ramiel.Env, error) {
			outs, _, err := b.t.do(ctx, 0, in, nil, 0)
			return outs, err
		},
	} {
		b.tl.attempted.Add(1)
		outs, err := run()
		if err == nil {
			err = checkGolden(b.spec.Name, outs)
		}
		if err != nil {
			b.tl.fail(err)
		}
	}
}

// issue sends request seq to the target on caller c, records its spans,
// and checks its reply: every one in process, a 1-in-50 sample when serving.
func (b *bench) issue(c, seq int, from time.Time) reply {
	in := &b.ins[seq%len(b.ins)]
	tr := b.tr
	var root int32
	if tr != nil {
		root = tr.reserve(0, 0, "gen", "request", tr.at(from))
	}
	outs, info, err := b.t.do(context.Background(), c, in, tr, root)
	if tr != nil {
		tr.finish(root, tr.at(from), tr.at(time.Now()))
		addServerSpans(tr, root, info)
	}
	if err == nil && b.spec.Path != pathSession && seq%checkEvery != 0 {
		outs = nil
	}
	r := b.tl.check(outs, err, in)
	r.info = info
	return r
}

func (b *bench) openLoop(dur time.Duration) []outcome {
	return openLoop(realClock{}, b.t.callers, b.spec.RateRPS, dur, b.spec.Limit, b.issue)
}

// untraced measures the end-to-end metrics. The run is cut into rounds, each
// a fresh set-up, a few compiles, and a slice of every phase, so that each
// metric samples the whole run and a few noisy seconds on a shared machine
// land on all of them alike instead of on one.
func (b *bench) untraced(liveHeap float64) error {
	rounds := b.opt.size.rounds
	per := func(part float64) time.Duration { return share(b.opt.seconds, part) / time.Duration(rounds) }
	var seqMs, parMs, rps samples
	var open []outcome
	served := 0
	for r := 0; r < rounds; r++ {
		if r > 0 {
			if err := b.setUp(); err != nil {
				return err
			}
			if err := b.compile(b.opt.size.compileCalls / rounds); err != nil {
				return err
			}
		}
		s, p := seqParBlocks(b.seq, b.par, b.ins, per(shareSeqPar), &b.tl, nil)
		seqMs, parMs = append(seqMs, s...), append(parMs, p...)
		closed, wall := closedLoop(realClock{}, b.t.callers, per(shareClosed), b.issue)
		cs := summarize(closed, time.Hour)
		rps = append(rps, float64(cs.served)/wall.Seconds())
		served += cs.served
		open = append(open, b.openLoop(per(shareOpen))...)
	}
	os := summarize(open, b.spec.Limit)

	m := b.m
	m.put("setup_s", b.setupS.median(), len(b.setupS))
	m.put("compile_ms", b.compileMs.median(), len(b.compileMs))
	m.put("seq_p50_ms", seqMs.median(), len(seqMs))
	m.put("par_p50_ms", parMs.median(), len(parMs))
	m.put("throughput_rps", rps.median(), served)
	m.put("req_p50_ms", os.latency.median(), len(os.latency))
	m.put("live_heap_mb", liveHeap, 1)
	putTails(m, seqMs, parMs, os)
	b.checkGenerator(os)
	return nil
}

// traced measures the per-layer metrics: an untraced block of runs as the
// base of the tracing overhead, the same block with the executor's timeline
// recorder on, an open loop with request spans, and direct calls into
// single layers.
func (b *bench) traced() {
	secs := b.opt.seconds
	_, baseMs := seqParBlocks(b.seq, b.par, b.ins, share(secs, tracedShareBase), &b.tl, nil)
	rt := newRunTrace(b.tr, b.prog, b.oneLane)
	seqMs, parMs := seqParBlocks(b.seq, b.par, b.ins, share(secs, tracedShareRuns), &b.tl, rt)
	rt.stop()
	open := summarize(b.openLoop(share(secs, tracedShareOpen)), b.spec.Limit)

	m := b.m
	putTails(m, seqMs, parMs, open)
	m.put("obs.trace_overhead_share", (parMs.median()-baseMs.median())/baseMs.median(), len(parMs))
	rt.report(m)
	b.reportServing(open)
	b.measureLayers(share(secs, tracedShareLayers), parMs.median())
	b.checkGenerator(open)
}

// putTails records the rows that are reported but not gated.
func putTails(m *metricSet, seqMs, parMs samples, open loopStats) {
	m.put("speedup_x", seqMs.median()/parMs.median(), len(parMs))
	if v, ok := parMs.p99(); ok {
		m.put("par_p99_ms", v, len(parMs))
	}
	if v, ok := open.latency.p99(); ok {
		m.put("req_p99_ms", v, len(open.latency))
	}
	m.put("miss_share", open.missRate, open.due)
	if v, ok := open.genLate.p99(); ok {
		m.put("gen.late_p99_ms", v, len(open.genLate))
	} else {
		m.put("gen.late_p99_ms", open.genLate.quantile(0.9), len(open.genLate))
	}
}

// checkGenerator marks the run invalid when the generator's own median
// lateness is more than a tenth of the median request — but never for less
// than the 1 ms granularity of a Go timer, which no run here can avoid and
// which outcome.from already leaves out. Beyond that the generator is being
// starved of CPU and the arrival schedule is not the one the workload names.
func (b *bench) checkGenerator(open loopStats) {
	late, p50 := open.genLate.median(), open.latency.median()
	if late > 1 && late > 0.1*p50 {
		b.invalid = fmt.Sprintf("generator ran %.3f ms late at the median, over a tenth of req_p50_ms %.3f ms", late, p50)
	}
}

// seqParBlocks alternates short blocks of one-lane and lane-parallel runs
// on one caller for dur, so drift in the machine lands on both alike. Every
// output is compared with the reference, outside the timed interval.
func seqParBlocks(seq, par *ramiel.Session, ins []input, dur time.Duration, tl *tally, rt *runTrace) (seqMs, parMs samples) {
	const block = 8
	ctx := context.Background()
	end := time.Now().Add(dur)
	for n := 0; time.Now().Before(end); {
		for _, side := range []struct {
			s   *ramiel.Session
			out *samples
			par bool
		}{{seq, &seqMs, false}, {par, &parMs, true}} {
			for i := 0; i < block; i++ {
				in := &ins[n%len(ins)]
				n++
				start := time.Now()
				outs, err := side.s.Run(ctx, in.feeds)
				stop := time.Now()
				side.out.add(stop.Sub(start))
				tl.check(outs, err, in)
				if rt != nil && err == nil {
					rt.note(side.par, start, stop)
				}
			}
		}
	}
	return seqMs, parMs
}

package main

import "time"

// metricSpec names one reported metric. BENCHMARK.json repeats this table;
// TestBenchmarkJSONMatchesSpec keeps the two identical.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics. Every workload reports every one of them
// from the untraced run (the driver contract: a metric a workload could not
// report would have no parent value to compare against), so each workload
// runs all three timed phases — one-lane vs lane-parallel Session.Run, a
// closed loop, and an open loop at a frozen rate — on its own request path.
//
// The bounds come from the quartile spreads seen over three sets of ten
// seeds on the seed commit (README, "Steadiness"): about three times the
// widest spread where the driver's 0.25 ceiling allows, the ceiling where it
// does not. They are not the 0.05/0.10 the issue hoped for: the 2-core
// sandbox drifts by 10 % over minutes, whatever a run does inside itself.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"compile_ms", "ms", "lower", 0.25},
	{"seq_p50_ms", "ms", "lower", 0.20},
	{"par_p50_ms", "ms", "lower", 0.20},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"req_p50_ms", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.08},
}

// perLayer are the ungated metrics of the traced run, layer = package name.
// A metric a workload does not exercise reads 0 on the driver's line (the
// driver wants every name on every workload) and is left out of the table.
//
// par_p99_ms, req_p99_ms and miss_share are the issue's end-to-end rows
// demoted to this list under their own names: a p99 needs 1000 samples,
// which an 18 ms model cannot give inside the driver's time cap, and
// miss_share is 0 on a healthy run, which the driver cannot gate by ratio.
var perLayer = []metricSpec{
	{"speedup_x", "x", "higher", 0},
	{"par_p99_ms", "ms", "lower", 0},
	{"req_p99_ms", "ms", "lower", 0},
	{"miss_share", "ratio", "lower", 0},

	{"models.build_ms", "ms", "lower", 0},
	{"onnx.save_ms", "ms", "lower", 0},
	{"onnx.load_ms", "ms", "lower", 0},
	{"onnx.file_bytes", "bytes", "lower", 0},

	{"passes.prune_ms", "ms", "lower", 0},
	{"passes.fuse_ms", "ms", "lower", 0},
	{"passes.clone_ms", "ms", "lower", 0},
	{"passes.folded_nodes", "count", "higher", 0},
	{"passes.dce_removed_nodes", "count", "higher", 0},
	{"passes.bn_folded", "count", "higher", 0},
	{"passes.epilogues", "count", "higher", 0},
	{"passes.fused_chain_nodes", "count", "higher", 0},
	{"passes.cloned_nodes", "count", "higher", 0},
	{"passes.nodes_after", "count", "lower", 0},

	{"core.cluster_ms", "ms", "lower", 0},
	{"core.merge_ms", "ms", "lower", 0},
	{"core.clusters_pre_merge", "count", "lower", 0},
	{"core.clusters_post_merge", "count", "lower", 0},
	{"cost.parallelism", "x", "higher", 0},
	{"cost.sim_speedup_x", "x", "higher", 0},
	{"cost.spearman_rho", "ratio", "higher", 0},

	{"memplan.build_ms", "ms", "lower", 0},
	{"memplan.peak_live_bytes", "bytes", "lower", 0},
	{"memplan.scratch_bytes", "bytes", "lower", 0},
	{"tensor.arena_hit_share", "ratio", "higher", 0},
	{"tensor.arena_peak_bytes", "bytes", "lower", 0},
	{"tensor.arena_fresh_bytes", "bytes", "lower", 0},

	{"exec.plan_ms", "ms", "lower", 0},
	{"exec.prepack_ms", "ms", "lower", 0},
	{"exec.prepack_bytes", "bytes", "lower", 0},
	{"exec.op_busy_ms", "ms", "lower", 0},
	{"exec.recv_wait_ms", "ms", "lower", 0},
	{"exec.critpath_op_ms", "ms", "lower", 0},
	{"exec.critpath_wait_ms", "ms", "lower", 0},
	{"exec.lane_busy_share", "ratio", "higher", 0},
	{"exec.cross_lane_sends", "count", "lower", 0},
	{"exec.dispatch_us_per_node", "us", "lower", 0},
	{"exec.allocs_per_run", "count", "lower", 0},
	{"exec.bytes_per_run", "bytes", "lower", 0},

	{"ops.conv_ms", "ms", "lower", 0},
	{"ops.matmul_ms", "ms", "lower", 0},
	{"ops.gemm_ms", "ms", "lower", 0},
	{"ops.fused_elementwise_ms", "ms", "lower", 0},
	{"ops.other_ms", "ms", "lower", 0},
	{"kernels.gemm_512_gflops", "gflops", "higher", 0},
	{"kernels.gemm_small_gflops", "gflops", "higher", 0},
	{"kernels.gemm_packed_512_gflops", "gflops", "higher", 0},
	{"kernels.im2col_gbps", "GB/s", "higher", 0},

	{"hyper.build_ms", "ms", "lower", 0},
	{"hyper.batch4_sample_ms", "ms", "lower", 0},
	{"codegen.generate_ms", "ms", "lower", 0},
	{"codegen.source_bytes", "bytes", "lower", 0},

	{"serve.decode_ms", "ms", "lower", 0},
	{"serve.encode_ms", "ms", "lower", 0},
	{"serve.wire_ms", "ms", "lower", 0},
	{"serve.queue_wait_ms", "ms", "lower", 0},
	{"serve.batch_wait_ms", "ms", "lower", 0},
	{"serve.exec_ms", "ms", "lower", 0},
	{"serve.mean_batch", "count", "higher", 0},
	{"serve.shed_share", "ratio", "lower", 0},
	{"serve.allocs_per_req", "count", "lower", 0},

	{"fleet.route_us", "us", "lower", 0},
	{"fleet.shed_share", "ratio", "lower", 0},
	{"fleet.spill_share", "ratio", "lower", 0},
	{"fleet.attempts_per_req", "count", "lower", 0},

	{"gen.late_p99_ms", "ms", "lower", 0},
	{"gen.offered_rps", "1/s", "higher", 0},
	{"obs.trace_overhead_share", "ratio", "lower", 0},
}

// exactCounts must repeat exactly between two runs of the same code;
// -selfcheck fails on any difference.
var exactCounts = []string{
	"onnx.file_bytes",
	"passes.folded_nodes", "passes.dce_removed_nodes", "passes.bn_folded",
	"passes.epilogues", "passes.fused_chain_nodes", "passes.cloned_nodes",
	"passes.nodes_after",
	"core.clusters_pre_merge", "core.clusters_post_merge",
	"exec.cross_lane_sends", "exec.prepack_bytes", "codegen.source_bytes",
}

// path selects how a workload's request reaches the model.
type path int

const (
	pathSession path = iota // ramiel.Session.Run in process
	pathWire                // POST /v1/infer on a loopback serve.Server
	pathFleet               // fleet.Front.Infer over two local replicas
)

// workloadSpec fixes everything about a workload except the inputs, which
// come from -seed. RateRPS and Limit were calibrated once on the seed commit
// (README, "Calibration") and are frozen as absolute numbers so both sides
// of a comparison see the same offered load.
type workloadSpec struct {
	Name      string
	Why       string
	Model     string
	ImageSize int
	Prune     bool
	Path      path
	// Callers is the size of the fixed caller pool for the closed and open
	// loops; 0 means one per core.
	Callers int
	// RateRPS is the open loop's arrival rate; Limit the latency limit a
	// reply must meet (4 × the seed commit's req_p50_ms).
	RateRPS float64
	Limit   time.Duration
}

var workloads = []workloadSpec{
	{
		Name:      "cnn_kernel",
		Why:       "inception_v3 at 224 px in process: kernels and ops do >90% of the work, so kernel changes show here and executor changes must not",
		Model:     "inception_v3",
		ImageSize: 224,
		Path:      pathSession,
		RateRPS:   50,
		Limit:     75 * time.Millisecond,
	},
	{
		Name:    "bert_sched",
		Why:     "bert with pruning in process: hundreds of tiny ops, so executor dispatch, hand-offs and allocation dominate and kernels idle",
		Model:   "bert",
		Prune:   true,
		Path:    pathSession,
		RateRPS: 300,
		Limit:   12 * time.Millisecond,
	},
	{
		Name:      "serve_wire",
		Why:       "squeezenet at 224 px behind POST /v1/infer with full 1.5 MB JSON bodies, unbatched: wire decode and validation dominate, exec is a fifth",
		Model:     "squeezenet",
		ImageSize: 224,
		Path:      pathWire,
		Callers:   2,
		RateRPS:   24,
		Limit:     160 * time.Millisecond,
	},
	{
		Name:      "serve_batch",
		Why:       "squeezenet at 64 px through fleet.Front over two batching replicas, no wire: micro-batcher, batch-k plans, pool queueing and routing at sub-ms requests",
		Model:     "squeezenet",
		ImageSize: 64,
		Path:      pathFleet,
		Callers:   8,
		RateRPS:   1200,
		Limit:     5 * time.Millisecond,
	},
}

// Phase lengths as shares of -seconds. The untraced run spends all of it on
// the three phases behind the end-to-end metrics; the traced run keeps a
// short untraced block (the base of obs.trace_overhead_share) and spends the
// rest on traced blocks and on direct calls into single layers.
const (
	shareSeqPar = 0.40 // alternating one-lane / lane-parallel blocks
	shareClosed = 0.20
	shareOpen   = 0.40

	tracedShareBase   = 0.10 // untraced seq/par, same code as above
	tracedShareRuns   = 0.20 // seq/par with the timeline recorder on
	tracedShareOpen   = 0.30 // open loop with request spans
	tracedShareLayers = 0.40 // direct calls into single layers
)

const (
	p99MinN    = 1000
	checkEvery = 50 // serving replies are checked on a 1-in-50 sample
	// smokeSeconds makes the phases about 0.1 s.
	smokeSeconds = 0.3
)

// sizing is how much work a run does outside its timed phases.
type sizing struct {
	inputs       int // distinct inputs per run, drawn from -seed
	warmup       int // warm-up requests, part of setup_s
	rounds       int // the untraced run's phases are cut into this many rounds, each after a fresh set-up
	compileCalls int // compile_ms is the median of this many Compile calls, spread over the rounds
	imageCap     int // when > 0, vision models are built no larger than this
	golden       bool
	// quick cuts every "at least n calls" to one and every allocation count
	// to five calls: the smoke run wants the code path, not the number.
	quick bool
}

// atLeast is the least number of calls a timing takes, however short its
// time budget.
func (z sizing) atLeast(n int) int {
	if z.quick {
		return 1
	}
	return n
}

// countFor is how many calls of about ms each an allocation count runs
// over: 200 when they are cheap, fewer when 200 would take over a second.
func (z sizing) countFor(ms float64) int {
	if z.quick {
		return 5
	}
	return max(20, min(200, int(1000/ms)))
}

var (
	fullSize = sizing{inputs: 8, warmup: 20, rounds: 5, compileCalls: 200, golden: true}
	// smokeSize is for `go test`: every code path, no measurement. Golden
	// files are for the full-size models, so they are not consulted.
	smokeSize = sizing{inputs: 2, warmup: 2, rounds: 1, compileCalls: 2, imageCap: 32, quick: true}
)

// options is one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	size    sizing
}

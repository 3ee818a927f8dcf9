// Package ramiel (module "repro") is a Go reproduction of "Automatic Task
// Parallelization of Dataflow Graphs in ML/DL models" (Das & Rauchwerger,
// arXiv:2308.11192): a fast, search-free compiler that extracts task
// parallelism from ML dataflow graphs for batch-size-1 CPU inference.
//
// The pipeline mirrors the paper's tool Ramiel:
//
//	model (ONNX-subset) ──► graph IR ──► prune (const-prop + DCE)
//	     ──► clone ──► Linear Clustering + merging ──► hyperclusters (batch>1)
//	     ──► parallel execution (goroutine per cluster, channel messages)
//	        ├─► readable generated Go code, one function per cluster
//	        └─► serving runtime (internal/serve + cmd/ramield): compile-once
//	            program cache, session pool, dynamic micro-batching over HTTP
//
// Quick start — compile once, then run through a Session:
//
//	g, _ := ramiel.BuildModel("squeezenet", ramiel.ModelConfig{})
//	prog, _ := ramiel.Compile(g, ramiel.WithPrune())
//	sess := prog.NewSession()
//	outs, _ := sess.Run(ctx, ramiel.RandomInputs(g, 42))
//
// Compile takes functional options (WithPrune, WithClone, WithCostModel,
// WithoutMerge, WithoutFusion — operator fusion is on by default);
// CompileWithOptions accepts the same configuration as an
// Options struct for callers that carry it as data.
//
// A Session bundles the run configuration — a tensor arena that recycles
// intermediate tensors across its runs, so steady-state inference allocates
// nothing per run (the session owns one unless WithArena hands it a
// caller-owned arena). What a run did is recorded on the Program, not the Session:
// its op counters and, when enabled, its sampled timeline (both below).
// Session.Run validates feeds up front (ValidateFeeds) and honors its context:
// cancellation and deadlines abort an in-flight run cooperatively between
// operator kernels, with no goroutine leaks and the arena left reusable.
//
// MeasureSpeedup times a program against a one-lane plan of a baseline on
// this host, with outputs checked against the sequential run: the paper's
// headline metric, and the source of every runtime cell cmd/benchtab prints.
//
// A Session serves one goroutine; the compiled Program underneath is safe
// to share — any number of Sessions may run it concurrently (the serving
// invariant; see the Plan concurrency contract in internal/exec).
//
// Execution is instrumented: every Plan run accumulates per-op-type
// invocation counts and cumulative wall time (Program.OpTotals — where
// model time goes, measured live), and the serving layer adds per-model
// stage-latency histograms, request tracing, and cause-labeled error
// counters on top (see internal/obs). The ramield daemon serves it all at
// GET /v1/stats, /v1/trace and /metrics (Prometheus text format), next to
// POST /v1/infer, GET /v1/models, /healthz and /readyz.
//
// ramield is the one daemon. With one in-process replica it serves that
// server's API; with more (-replicas N), with other ramields behind it
// (-remotes URLs), or both, it serves the fleet front (internal/fleet:
// consistent-hash routing, deadline-feasibility admission, retries, hedging,
// circuit breakers) — GET /v1/fleet and the ramielfe_* metric families in
// place of /v1/stats, /v1/trace and /v1/timeline. POST /v1/infer is the same
// handler either way (serve.InferHandler), and every refusal — a bad body,
// feeds that do not match the model, a memory or admission shed, a remote
// replica's error — is one type (serve.Refusal) answered through one
// mapping (serve.ReplyFor): same status, cause label and Retry-After on
// both tiers.
//
// For when the aggregates are not enough, Program.EnableTimeline attaches
// an execution-timeline flight recorder that samples one run in N into
// complete per-lane span timelines (operator kernels, blocked cross-lane
// receives, channel sends); the unsampled path costs one atomic load and
// allocates nothing. A sampled run (Program.LastTimeline) exports as
// Chrome trace-event JSON (RunTimeline.ChromeTrace — load it in Perfetto
// or chrome://tracing; also GET /v1/timeline on ramield, and ramiel -run
// -timeline), drives the measured critical-path analysis
// (Program.CriticalPathFromTimeline) against the static prediction, and
// Program.Calibrate compares the static cost model with the live per-op
// measurements (ramiel -calibrate): a per-op ratio table and the rank
// correlation between predicted and measured node costs.
//
// The serving tier is resource-governed: sessions' shared arena carries a
// hard byte budget (tensor.Arena.SetBudget — an over-budget run fails
// alone with tensor.ErrArenaBudget instead of growing the heap), the
// daemon sheds requests whose projected working set would overflow the
// memory budget (429 with cause "memory" and a Retry-After hint;
// ramield -mem-budget, default 80% of cgroup/system memory), a
// stuck-run watchdog force-cancels runs exceeding a multiple of the
// model's p99 (-watchdog, never under 2s; cause "watchdog"), request
// bodies are capped (-max-body, 413), and non-finite feeds (NaN/Inf) are
// rejected at validation (ramiel.CheckFiniteFeeds). DESIGN.md's "Resource governance" section has the policy
// details.
//
// See the examples/ directory for runnable end-to-end programs and
// DESIGN.md for the system inventory, serving-layer architecture,
// observability design, ramield quickstart and experiment index.
package ramiel

package ramiel

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/hyper"
	"repro/internal/memplan"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/onnx"
	"repro/internal/ops"
	"repro/internal/passes"
	"repro/internal/tensor"
)

// Re-exported core types so downstream code (including the generated
// parallel programs) never imports internal packages directly.
type (
	// Tensor is a dense float32 tensor.
	Tensor = tensor.Tensor
	// Shape is a tensor shape.
	Shape = tensor.Shape
	// Attrs holds operator attributes.
	Attrs = ops.Attrs
	// Env binds value names to tensors.
	Env = exec.Env
	// Graph is the dataflow-graph IR.
	Graph = graph.Graph
	// Node is one operator in a Graph.
	Node = graph.Node
	// ValueInfo names a graph-level input or output and its shape.
	ValueInfo = graph.ValueInfo
	// ModelConfig controls zoo-model construction.
	ModelConfig = models.Config
	// CostModel assigns static weights to operators.
	CostModel = cost.Model
	// Metrics is the potential-parallelism report of Table I.
	Metrics = cost.Metrics
	// SimResult is a simulated-makespan report.
	SimResult = exec.SimResult
	// CloneOptions bounds the task-cloning pass.
	CloneOptions = passes.CloneOptions
	// Arena recycles tensor storage across runs (see WithArena).
	Arena = tensor.Arena
	// ArenaStats aggregates arena counters, shareable between arenas.
	ArenaStats = tensor.ArenaStats
	// OpTotal is one operator type's measured execution totals
	// (invocations + cumulative ns) from a program's live counters.
	OpTotal = obs.OpTotal
	// Timeline is a program's execution flight recorder: 1-in-N sampled
	// per-op/per-wait span timelines (see Program.EnableTimeline).
	Timeline = obs.Timeline
	// RunTimeline is one sampled run's complete span timeline, exportable
	// as Chrome trace-event JSON (RunTimeline.ChromeTrace).
	RunTimeline = obs.RunTimeline
	// Calibration compares the static cost model against live measured
	// per-op durations (see Program.Calibrate).
	Calibration = exec.Calibration
	// CriticalPathReport is a sampled run's measured critical path next to
	// the static model's prediction (see Program.CriticalPathFromTimeline).
	CriticalPathReport = exec.CriticalPathReport
)

// NewArena creates an empty tensor arena for WithArena. Keep it
// alive across runs (it is what makes steady-state inference allocation-
// free); do not share it between concurrent runs.
func NewArena() *Arena { return tensor.NewArena() }

// NewTensor wraps data (not copied) with the given shape.
func NewTensor(shape Shape, data []float32) *Tensor { return tensor.New(shape, data) }

// ZerosTensor allocates a zero-filled tensor.
func ZerosTensor(dims ...int) *Tensor { return tensor.Zeros(dims...) }

// NewShape builds a Shape from extents.
func NewShape(dims ...int) Shape { return tensor.NewShape(dims...) }

// BuildModel constructs one of the paper's eight evaluation models
// ("squeezenet", "googlenet", "inception_v3", "inception_v4", "yolo_v5",
// "retinanet", "bert", "nasnet").
func BuildModel(name string, cfg ModelConfig) (*Graph, error) {
	return models.Build(name, cfg)
}

// ModelNames lists the available zoo models.
func ModelNames() []string { return models.Names() }

// LoadModel reads an ONNX-subset model file (JSON, optionally .gz).
func LoadModel(path string) (*Graph, error) { return onnx.LoadGraph(path) }

// SaveModel writes g as an ONNX-subset model file.
func SaveModel(g *Graph, path string) error { return onnx.SaveGraph(g, path) }

// RandomInputs builds a deterministic valid feed for every graph input.
func RandomInputs(g *Graph, seed uint64) Env { return models.RandomInputs(g, seed) }

// DefaultCostModel returns the paper's static operator-weight table.
func DefaultCostModel() CostModel { return cost.DefaultModel() }

// SetIntraOpThreads sets the kernels' intra-operator parallelism degree,
// the analogue of OMP_NUM_THREADS for the paper's downstream intra-op
// experiments (Table V).
func SetIntraOpThreads(n int) { tensor.SetIntraOpThreads(n) }

// Options is the struct form of the compile configuration, consumed by
// CompileWithOptions. It exists for callers that carry the configuration as
// data (the serving registry fingerprints it into program-cache keys); code
// configuring a compile in place should use Compile with functional options
// (WithPrune, WithClone, WithCostModel, WithoutMerge, WithoutFusion).
type Options struct {
	// CostModel defaults to DefaultCostModel().
	CostModel CostModel
	// Prune runs constant propagation + dead-code elimination first
	// (Section III-C).
	Prune bool
	// Clone runs limited task cloning before clustering (Section III-D).
	Clone bool
	// CloneOptions overrides the default cloning bounds.
	CloneOptions *CloneOptions
	// DisableMerge skips the cluster-merging pass (Algorithms 2-3); used
	// by the merge ablation only.
	DisableMerge bool
	// DisableFusion skips the operator-fusion pass (BatchNorm folding,
	// kernel writeback epilogues, fused elementwise chains). Fusion is on
	// by default — it is semantics-preserving to float rounding — and this
	// is the escape hatch (WithoutFusion) for debugging and ablations.
	DisableFusion bool
}

// Program is a compiled parallel program: the (possibly optimized) graph,
// its clustering and the executable plan.
type Program struct {
	Graph      *Graph
	Clustering *core.Clustering
	Plan       *exec.Plan
	// CompileTime is the full pipeline latency (the paper's CT column in
	// Table VIII).
	CompileTime time.Duration
	// PruneReport / CloneReport / FusionReport record what the optimization
	// passes did (zero values when the pass was disabled).
	PruneReport  passes.PruneReport
	CloneReport  passes.CloneReport
	FusionReport passes.FusionReport

	// opts remembers the compile configuration so GenerateGo can bake an
	// environment-reproduction expression into generated code (see
	// CompiledEnv).
	opts Options

	// memEst memoizes MemoryEstimate: the sizing run is a full sequential
	// execution, so it must happen at most once per program.
	memEstOnce sync.Once
	memEst     memplan.Estimate
	memEstErr  error
}

// compile is the pipeline shared by Compile (functional options) and
// CompileWithOptions (struct form): optional pruning and cloning, the
// distance pass, recursive critical-path linear clustering and iterative
// cluster merging, finishing with an executable plan.
func compile(g *Graph, opts Options) (*Program, error) {
	start := time.Now()
	if opts.CostModel == nil {
		opts.CostModel = cost.DefaultModel()
	}
	work := g.Clone()
	p := &Program{Graph: work, opts: opts}
	if opts.Prune {
		pr, err := passes.Prune(work)
		if err != nil {
			return nil, fmt.Errorf("ramiel: prune: %w", err)
		}
		p.PruneReport = pr
	}
	if !opts.DisableFusion {
		// Operator fusion (BN folding, writeback epilogues, elementwise
		// chains) runs after pruning and before clustering, so fused chains
		// schedule as single units and the folded weights are what the
		// prepack pass below packs.
		fr, err := passes.Fuse(work)
		if err != nil {
			return nil, fmt.Errorf("ramiel: fuse: %w", err)
		}
		p.FusionReport = fr
	}
	if opts.Clone {
		co := passes.DefaultCloneOptions()
		if opts.CloneOptions != nil {
			co = *opts.CloneOptions
		}
		cr, err := passes.CloneTasks(work, opts.CostModel, co)
		if err != nil {
			return nil, fmt.Errorf("ramiel: clone: %w", err)
		}
		p.CloneReport = cr
	}
	cl, err := core.LinearCluster(work, opts.CostModel)
	if err != nil {
		return nil, fmt.Errorf("ramiel: clustering: %w", err)
	}
	if !opts.DisableMerge {
		cl.MergeClusters()
	}
	p.Clustering = cl
	lanes := make([][]*graph.Node, len(cl.Clusters))
	for i, c := range cl.Clusters {
		lanes[i] = c.Nodes
	}
	plan, err := exec.NewPlan(work, lanes)
	if err != nil {
		return nil, fmt.Errorf("ramiel: planning: %w", err)
	}
	p.Plan = plan
	// Pack constant GEMM/Conv weights once, now, so no Session.Run ever
	// repacks them (the prepack pass; CompileTime includes it).
	plan.PrepackWeights()
	p.CompileTime = time.Since(start)
	return p, nil
}

// NumClusters returns the plan's lane count.
func (p *Program) NumClusters() int { return len(p.Plan.Lanes) }

// MemoryPlan returns the program's static memory plan: per-value use
// counts and liveness, in-place eligibility, and (via MemoryEstimate)
// peak-memory forecasts.
func (p *Program) MemoryPlan() *memplan.Plan { return p.Plan.MemoryPlan() }

// MemoryEstimate forecasts the program's peak arena working set for one
// run: PeakLiveBytes (simultaneously-live intermediates over the static
// schedule) plus ScratchBytes (the largest single-kernel transient, e.g.
// an im2col patch matrix). Tensor shapes are not statically inferable, so
// the sizes come from one deterministic sequential sizing run — the first
// call costs about one sequential inference; the result is memoized.
// Serving layers use it for memory-feasibility admission, computing it off
// the request path.
func (p *Program) MemoryEstimate() (memplan.Estimate, error) {
	p.memEstOnce.Do(func() {
		mp := p.Plan.MemoryPlan()
		if mp == nil {
			p.memEstErr = fmt.Errorf("ramiel: graph defies memory analysis")
			return
		}
		mm, err := exec.MeasureCosts(p.Graph, RandomInputs(p.Graph, 1), 1)
		if err != nil {
			p.memEstErr = fmt.Errorf("ramiel: memory sizing run: %w", err)
			return
		}
		p.memEst = mp.EstimateWithScratch(mm.ValueNumel, mm.ScratchNumel)
	})
	return p.memEst, p.memEstErr
}

// PrepackedWeights reports the compile-time weight prepacking: how many
// GEMM-shaped nodes had constant operands packed into kernel panel layout
// at Compile time, and the packed bytes every run now shares.
func (p *Program) PrepackedWeights() (nodes int, bytes int64) {
	return p.Plan.PrepackWeights()
}

// OpTotals reports the program's live per-op execution totals — kernel
// invocations and cumulative time per operator type, accumulated across
// every run of the program since it was compiled, sorted by cumulative
// time descending. Empty until the program has run. This is the measured
// counterpart of the static cost model: it shows where execution time
// actually goes on this host.
func (p *Program) OpTotals() []OpTotal { return p.Plan.OpTotals() }

// EnableTimeline attaches the execution-timeline flight recorder to the
// program: one run in `every` is sampled into timestamped per-op spans
// (with cross-lane send/receive wait attribution), retained in a ring of
// the most recent `ring` sampled runs. Sampling off (never enabled) adds
// zero allocations and one atomic load to each run; sampled runs pay for
// their span storage. Returns the recorder for direct inspection.
func (p *Program) EnableTimeline(every, ring int) *Timeline {
	return p.Plan.EnableTimeline(every, ring)
}

// Timeline returns the program's attached flight recorder, nil when
// recording was never enabled.
func (p *Program) Timeline() *Timeline { return p.Plan.Timeline() }

// LastTimeline returns the most recent sampled run's timeline, nil when
// recording is disabled or no run has been sampled yet. Export it with
// RunTimeline.ChromeTrace (Perfetto/chrome://tracing-loadable JSON).
func (p *Program) LastTimeline() *RunTimeline { return p.Plan.LastTimeline() }

// Calibrate compares the program's compile-time cost model against its live
// measured per-op durations (the counters behind OpTotals): a per-op ratio
// table, the rank correlation between static and measured node costs, and
// the worst-diverging ops. Nil until the program has run.
func (p *Program) Calibrate() *Calibration {
	return p.Plan.Calibrate(p.costModel())
}

// CriticalPathFromTimeline recovers the measured critical path of one
// sampled run — the chain of kernels and cross-lane waits that bounded its
// wall time — and sets it against the static cost model's predicted
// critical path over the same graph.
func (p *Program) CriticalPathFromTimeline(r *RunTimeline) (*CriticalPathReport, error) {
	return p.Plan.CriticalPathFromTimeline(r, p.costModel())
}

// costModel resolves the model the program was compiled under (falling back
// to the paper's default weights — hyperclustered programs carry no
// clustering and therefore no model reference).
func (p *Program) costModel() cost.Model {
	if p.Clustering != nil && p.Clustering.Model != nil {
		return p.Clustering.Model
	}
	if p.opts.CostModel != nil {
		return p.opts.CostModel
	}
	return cost.DefaultModel()
}

// RunSequential executes the program's graph on one goroutine — the
// baseline every speedup in the paper is measured against.
func (p *Program) RunSequential(feeds Env) (Env, error) {
	return exec.RunSequential(p.Graph, feeds)
}

// Metrics computes the potential-parallelism factors of Table I for the
// program's (optimized) graph.
func (p *Program) Metrics() (Metrics, error) {
	return cost.ComputeMetrics(p.Graph, p.costModel())
}

// Simulate computes the deterministic makespan of the plan under the
// static cost model.
func (p *Program) Simulate() (SimResult, error) {
	return exec.Simulate(p.Plan, p.costModel())
}

// CodegenOptions configures GenerateGo.
type CodegenOptions = codegen.Options

// GenerateGo renders the program as readable parallel Go source: one
// function per cluster with explicit queue Send/Recv messaging, plus the
// sequential reference version (Section IV, Algorithm 4). Unless the
// caller supplies a model path, the generated main() reproduces this
// program's environment via CompiledEnv with the options the program was
// compiled with, so initializers materialized by optimization passes
// (folded constants, fused BatchNorm weights) resolve at run time.
func (p *Program) GenerateGo(opts CodegenOptions) (string, error) {
	if opts.ModelPath == "" && opts.CompileOptsExpr == "" {
		opts.CompileOptsExpr = optionsExpr(p.opts)
	}
	return codegen.Generate(p.Graph, p.Plan.Lanes, opts)
}

// optionsExpr renders the pass-relevant compile options as a Go expression
// for generated code. The cost model is omitted (it steers clustering, not
// the graph rewrites that create value names) and CloneOptions are spelled
// out field by field.
func optionsExpr(o Options) string {
	expr := fmt.Sprintf("ramiel.Options{Prune: %t, Clone: %t, DisableMerge: %t, DisableFusion: %t",
		o.Prune, o.Clone, o.DisableMerge, o.DisableFusion)
	if o.CloneOptions != nil {
		co := *o.CloneOptions
		expr += fmt.Sprintf(", CloneOptions: &ramiel.CloneOptions{MaxConeCost: %v, MaxConeNodes: %d, MaxFanout: %d, TopFraction: %v, MaxClones: %d}",
			co.MaxConeCost, co.MaxConeNodes, co.MaxFanout, co.TopFraction, co.MaxClones)
	}
	return expr + "}"
}

// Hypercluster builds a batch>1 program from this one (Section III-E):
// the graph is replicated per sample and each cluster's operations are
// interleaved across samples; switched additionally rotates cluster
// assignments per sample for load balance (Fig. 9).
func (p *Program) Hypercluster(batch int, switched bool) (*Program, error) {
	if p.Clustering == nil {
		return nil, fmt.Errorf("ramiel: program has no clustering to hypercluster")
	}
	var (
		h   *hyper.Hyperclustering
		err error
	)
	if switched {
		h, err = hyper.BuildSwitched(p.Clustering, batch)
	} else {
		h, err = hyper.Build(p.Clustering, batch)
	}
	if err != nil {
		return nil, err
	}
	plan, err := exec.NewPlanOrdered(h.Graph, h.Lanes)
	if err != nil {
		// Interleavings that would deadlock fall back to a topologically
		// re-sorted plan with the same lane membership.
		plan, err = exec.NewPlan(h.Graph, h.Lanes)
		if err != nil {
			return nil, err
		}
	}
	plan.PrepackWeights() // replicated weights pack once here, not per run
	return &Program{
		Graph:       h.Graph,
		Plan:        plan,
		CompileTime: p.CompileTime,
		opts:        p.opts,
	}, nil
}

// Inputs returns the program graph's declared inputs. For a hyperclustered
// program these are the per-sample replicas (SampleValueName of the batch-1
// inputs).
func (p *Program) Inputs() []ValueInfo { return p.Graph.Inputs }

// Outputs returns the program graph's declared outputs.
func (p *Program) Outputs() []ValueInfo { return p.Graph.Outputs }

// SampleValueName tags a value name with a batch-sample index, following
// the hyperclustering replication convention (Section III-E): sample s of
// graph input "in" is fed to a hyperclustered program as
// SampleValueName("in", s). Serving layers use this to assemble coalesced
// micro-batch feeds and split the outputs back per request.
func SampleValueName(name string, sample int) string {
	return hyper.SampleName(name, sample)
}

// SampleIndexOf recovers the sample index of a replicated value name, or
// -1 when the name carries no sample suffix.
func SampleIndexOf(name string) int { return hyper.SampleOf(name) }

// BaseValueName strips the sample suffix from a replicated value name,
// returning the batch-1 name; names without a suffix pass through.
func BaseValueName(name string) string { return hyper.BaseName(name) }

// Call invokes a registered operator kernel by its ONNX-style name on the
// heap; the generated parallel code is written in terms of Call.
func Call(op string, in []*Tensor, attrs Attrs) ([]*Tensor, error) {
	k, err := ops.Bind(op, attrs, nil)
	if err != nil {
		return nil, err
	}
	return k.Run(in, nil, false)
}

// SupportedOps lists every registered operator type.
func SupportedOps() []string { return ops.Names() }

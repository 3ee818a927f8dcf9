package ramiel

// CompileOption configures Compile. The zero configuration (no options)
// runs the plain pipeline: default cost model, no pruning or cloning,
// operator fusion on, cluster merging on.
type CompileOption func(*Options)

// WithCostModel sets the static operator cost model driving clustering
// (default DefaultCostModel()).
func WithCostModel(m CostModel) CompileOption {
	return func(o *Options) { o.CostModel = m }
}

// WithPrune enables constant propagation + dead-code elimination before
// clustering (Section III-C).
func WithPrune() CompileOption {
	return func(o *Options) { o.Prune = true }
}

// WithClone enables limited task cloning before clustering (Section III-D).
// Passing bounds overrides the default cloning limits; the last value wins.
func WithClone(bounds ...CloneOptions) CompileOption {
	return func(o *Options) {
		o.Clone = true
		if len(bounds) > 0 {
			co := bounds[len(bounds)-1]
			o.CloneOptions = &co
		}
	}
}

// WithoutMerge skips the cluster-merging pass (Algorithms 2-3); used by the
// merge ablation only.
func WithoutMerge() CompileOption {
	return func(o *Options) { o.DisableMerge = true }
}

// WithoutFusion skips the operator-fusion pass (BatchNorm folding into
// Conv/Gemm weights, activation epilogues applied in the GEMM writeback,
// and fused elementwise chains). Fusion is on by default; this is the
// escape hatch for debugging, ablations, and exact-unfused-rounding runs.
func WithoutFusion() CompileOption {
	return func(o *Options) { o.DisableFusion = true }
}

// Compile runs the Ramiel pipeline on a copy of g: optional pruning and
// cloning, the distance pass, recursive critical-path linear clustering and
// iterative cluster merging, finishing with an executable plan.
//
//	prog, err := ramiel.Compile(g, ramiel.WithPrune(), ramiel.WithClone())
//
// Execute the result through a Session (Program.NewSession + Session.Run).
func Compile(g *Graph, opts ...CompileOption) (*Program, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return compile(g, o)
}

// CompileWithOptions is the struct-form compatibility wrapper around
// Compile, for callers that carry the configuration as data (the serving
// registry fingerprints it into cache keys). New code building options
// in place should prefer Compile's functional options.
func CompileWithOptions(g *Graph, o Options) (*Program, error) {
	return compile(g, o)
}

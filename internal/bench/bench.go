// Package bench regenerates every table and figure of the paper's
// evaluation section (Tables I–VIII, Figs. 12–14) against this
// reproduction. Each regenerator prints the same rows/series the paper
// reports, side by side with the published numbers.
//
// Measurement methodology (documented in EXPERIMENTS.md): the reproduction
// host may have a single core, while the paper used a 12-core Xeon. Runtime
// tables therefore use real measured per-node kernel durations replayed
// through a deterministic discrete-event simulator of a 12-core machine
// with paper-equivalent (Python-process-queue) message costs; wall-clock
// parallel runs remain available through cmd/ramiel -run for hosts with
// real cores.
package bench

import (
	"fmt"
	"strings"
	"sync"

	ramiel "repro"
	"repro/internal/exec"
)

// Opts bundles the harness parameters.
type Opts struct {
	// ImageSize for vision models (the paper uses full-size inputs; the
	// reproduction scales down, default 64).
	ImageSize int
	// Reps is the number of measurement repetitions per node.
	Reps int
	// Cores is the simulated machine's core count (paper: 12).
	Cores int
}

// Default returns the options used by cmd/benchtab.
func Default() Opts {
	return Opts{ImageSize: 64, Reps: 2, Cores: 12}
}

// modelCtx caches everything the tables need per model.
type modelCtx struct {
	name string
	g    *ramiel.Graph

	lc       *ramiel.Program // plain linear clustering
	lcNoMrg  *ramiel.Program // merge ablation
	pruned   *ramiel.Program // LC + const-prop + DCE
	cloned   *ramiel.Program // LC + cloning
	best     *ramiel.Program // LC + prune + clone
	measured *exec.MeasuredModel
	prMeas   *exec.MeasuredModel // measured on the pruned graph
	clMeas   *exec.MeasuredModel // measured on the cloned graph
	bestMeas *exec.MeasuredModel
}

// harness lazily builds and caches model contexts.
type harness struct {
	opts Opts
	mu   sync.Mutex
	ctx  map[string]*modelCtx
}

func newHarness(opts Opts) *harness {
	return &harness{opts: opts, ctx: map[string]*modelCtx{}}
}

func (h *harness) model(name string) (*modelCtx, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c, ok := h.ctx[name]; ok {
		return c, nil
	}
	g, err := ramiel.BuildModel(name, ramiel.ModelConfig{ImageSize: h.opts.ImageSize})
	if err != nil {
		return nil, err
	}
	c := &modelCtx{name: name, g: g}

	// The paper's pipeline has no operator-fusion pass; compiling the
	// table variants WithoutFusion keeps node counts, op granularity and
	// the Table I parallelism factors comparable to the published numbers.
	// (Fusion stays on by default everywhere else — it is a serving-side
	// optimization layered on top of the reproduction.)
	if c.lc, err = ramiel.Compile(g, ramiel.WithoutFusion()); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if c.lcNoMrg, err = ramiel.Compile(g, ramiel.WithoutMerge(), ramiel.WithoutFusion()); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if c.pruned, err = ramiel.Compile(g, ramiel.WithPrune(), ramiel.WithoutFusion()); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if c.cloned, err = ramiel.Compile(g, ramiel.WithClone(), ramiel.WithoutFusion()); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if c.best, err = ramiel.Compile(g, ramiel.WithPrune(), ramiel.WithClone(), ramiel.WithoutFusion()); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	measure := func(p *ramiel.Program) (*exec.MeasuredModel, error) {
		feeds := ramiel.RandomInputs(p.Graph, 1)
		mm, err := exec.MeasureCosts(p.Graph, feeds, h.opts.Reps, 0)
		if err != nil {
			return nil, err
		}
		return mm.PaperEquivalentQueues(), nil
	}
	if c.measured, err = measure(c.lc); err != nil {
		return nil, fmt.Errorf("%s: measure: %w", name, err)
	}
	if c.prMeas, err = measure(c.pruned); err != nil {
		return nil, fmt.Errorf("%s: measure pruned: %w", name, err)
	}
	if c.clMeas, err = measure(c.cloned); err != nil {
		return nil, fmt.Errorf("%s: measure cloned: %w", name, err)
	}
	if c.bestMeas, err = measure(c.best); err != nil {
		return nil, fmt.Errorf("%s: measure best: %w", name, err)
	}
	h.ctx[name] = c
	return c, nil
}

// simSpeedup runs the DES for a program against a measured model.
func simSpeedup(p *ramiel.Program, mm *exec.MeasuredModel) (seqMs, parMs, speedup float64, err error) {
	res, err := exec.Simulate(p.Plan, mm)
	if err != nil {
		return 0, 0, 0, err
	}
	return res.TotalWork / 1000, res.Makespan / 1000, res.Speedup(), nil
}

// tb is a minimal text-table builder.
type tb struct {
	b strings.Builder
}

func (t *tb) title(s string)                 { fmt.Fprintf(&t.b, "%s\n%s\n", s, strings.Repeat("-", len(s))) }
func (t *tb) row(format string, args ...any) { fmt.Fprintf(&t.b, format+"\n", args...) }
func (t *tb) blank()                         { t.b.WriteByte('\n') }
func (t *tb) String() string                 { return t.b.String() }

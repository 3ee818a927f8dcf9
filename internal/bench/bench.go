// Package bench regenerates every table and figure of the paper's
// evaluation section (Tables I–VIII, Figs. 12–14) and the design ablations
// against this reproduction. Each regenerator prints the same rows/series
// the paper reports, side by side with the published numbers; DESIGN.md's
// experiment index lists them.
//
// Tables I–III and the edge-cost ablation are static: node counts, cluster
// counts and the cost model's parallelism factor. Every runtime cell is
// measured: ramiel.MeasureSpeedup times a program against a one-lane plan
// on this host, in alternating pairs of warm samples (each at least 10 ms
// of back-to-back runs), after checking the
// outputs against the sequential reference. The paper used a 12-core Xeon,
// so the measured speedups are bounded by this host's core count, which
// every runtime table prints in its title.
package bench

import (
	"fmt"
	"runtime"
	"strings"

	ramiel "repro"
)

// Opts bundles the harness parameters.
type Opts struct {
	// ImageSize for vision models (the paper uses full-size inputs; the
	// reproduction scales down, cmd/benchtab's default is 64).
	ImageSize int
	// Reps is the number of timed one-lane/lanes pairs per measurement.
	Reps int
}

// modelCtx holds one model's graph and its compiled table variants.
type modelCtx struct {
	g *ramiel.Graph

	lc      *ramiel.Program // plain linear clustering
	lcNoMrg *ramiel.Program // merge ablation
	pruned  *ramiel.Program // LC + const-prop + DCE
	cloned  *ramiel.Program // LC + cloning
	best    *ramiel.Program // LC + prune + clone
}

// model builds a zoo model and compiles its table variants.
func model(name string, opts Opts) (*modelCtx, error) {
	g, err := ramiel.BuildModel(name, ramiel.ModelConfig{ImageSize: opts.ImageSize})
	if err != nil {
		return nil, err
	}
	c := &modelCtx{g: g}

	// The paper's pipeline has no operator-fusion pass; compiling the
	// table variants WithoutFusion keeps node counts, op granularity and
	// the Table I parallelism factors comparable to the published numbers.
	// (Fusion stays on by default everywhere else — it is a serving-side
	// optimization layered on top of the reproduction.)
	for _, v := range []struct {
		dst  **ramiel.Program
		opts []ramiel.CompileOption
	}{
		{&c.lc, nil},
		{&c.lcNoMrg, []ramiel.CompileOption{ramiel.WithoutMerge()}},
		{&c.pruned, []ramiel.CompileOption{ramiel.WithPrune()}},
		{&c.cloned, []ramiel.CompileOption{ramiel.WithClone()}},
		{&c.best, []ramiel.CompileOption{ramiel.WithPrune(), ramiel.WithClone()}},
	} {
		if *v.dst, err = ramiel.Compile(g, append(v.opts, ramiel.WithoutFusion())...); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return c, nil
}

// speedups measures each program against base's one-lane run and returns
// the factors in order.
func speedups(opts Opts, base *ramiel.Program, progs ...*ramiel.Program) ([]float64, error) {
	xs := make([]float64, len(progs))
	for i, p := range progs {
		sp, err := ramiel.MeasureSpeedup(p, base, opts.Reps)
		if err != nil {
			return nil, err
		}
		xs[i] = sp.X()
	}
	return xs, nil
}

// measured is the title suffix of every runtime table.
func measured(opts Opts) string {
	return fmt.Sprintf("measured on this host (%d cores), medians of %d pairs", runtime.NumCPU(), max(opts.Reps, 1))
}

// tb is a minimal text-table builder.
type tb struct {
	b strings.Builder
}

func (t *tb) title(s string)                 { fmt.Fprintf(&t.b, "%s\n%s\n", s, strings.Repeat("-", len(s))) }
func (t *tb) row(format string, args ...any) { fmt.Fprintf(&t.b, format+"\n", args...) }
func (t *tb) blank()                         { t.b.WriteByte('\n') }
func (t *tb) String() string                 { return t.b.String() }

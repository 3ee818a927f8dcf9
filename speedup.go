package ramiel

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/exec"
)

// minSample is the least wall time one timed sample of MeasureSpeedup
// covers: a side shorter than this repeats back to back until it has run
// that long, and the sample is the mean per run. A program that runs in
// microseconds is then timed over many runs rather than one, so a burst of
// host load lands in few samples instead of deciding most of them.
const minSample = 10 * time.Millisecond

// Speedup is a wall-clock comparison measured on this host: the median run
// times of a baseline's one-lane plan and of a program's lane plan.
type Speedup struct {
	// OneLane is the baseline's median run time on a one-lane plan.
	OneLane time.Duration
	// Lanes is the program's median run time on its own plan.
	Lanes time.Duration
}

// X is the speedup factor: OneLane over Lanes.
func (s Speedup) X() float64 { return float64(s.OneLane) / float64(s.Lanes) }

// MeasureSpeedup times prog against a one-lane plan of baseline's graph,
// the measurement behind every speedup the paper reports. Pass prog itself
// as baseline to compare a program with its own one-lane run; pass the
// unoptimized program to charge a pass for the work it removes or adds.
//
// The one-lane twin is built as a compiled plan is (weights prepacked), and
// both sides run through arena sessions on seed-1 inputs. One untimed
// warm-up pair is checked against baseline.RunSequential; an output that
// differs is an error and no speedup. Then reps samples of each side (at
// least one) are timed, one lane and lanes alternating, so drifting host
// load hits both. A sample repeats its side until minSample has passed and
// records the mean run time.
func MeasureSpeedup(prog, baseline *Program, reps int) (Speedup, error) {
	plan, err := exec.SequentialPlan(baseline.Graph)
	if err != nil {
		return Speedup{}, fmt.Errorf("ramiel: one-lane plan: %w", err)
	}
	plan.PrepackWeights()
	oneLane := (&Program{Graph: baseline.Graph, Plan: plan}).NewSession()
	lanes := prog.NewSession()

	feeds := RandomInputs(baseline.Graph, 1)
	want, err := baseline.RunSequential(feeds)
	if err != nil {
		return Speedup{}, fmt.Errorf("ramiel: sequential reference: %w", err)
	}
	ctx := context.Background()
	warm := func(s *Session, side string) error {
		got, err := s.Run(ctx, feeds)
		if err != nil {
			return fmt.Errorf("ramiel: %s run: %w", side, err)
		}
		for k, w := range want {
			if g := got[k]; g == nil || !g.AllClose(w, 1e-4, 1e-5) {
				return fmt.Errorf("ramiel: %s output %q differs from the sequential reference", side, k)
			}
		}
		return nil
	}
	sample := func(s *Session, side string) (time.Duration, error) {
		t0 := time.Now()
		for n := 1; ; n++ {
			if _, err := s.Run(ctx, feeds); err != nil {
				return 0, fmt.Errorf("ramiel: %s run: %w", side, err)
			}
			if took := time.Since(t0); took >= minSample {
				return took / time.Duration(n), nil
			}
		}
	}
	if err := warm(oneLane, "one-lane"); err != nil {
		return Speedup{}, err
	}
	if err := warm(lanes, "lane plan"); err != nil {
		return Speedup{}, err
	}
	reps = max(reps, 1)
	one, par := make([]time.Duration, reps), make([]time.Duration, reps)
	for i := range reps {
		if one[i], err = sample(oneLane, "one-lane"); err != nil {
			return Speedup{}, err
		}
		if par[i], err = sample(lanes, "lane plan"); err != nil {
			return Speedup{}, err
		}
	}
	return Speedup{OneLane: median(one), Lanes: median(par)}, nil
}

func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	if n := len(ds); n%2 == 0 {
		return (ds[n/2-1] + ds[n/2]) / 2
	}
	return ds[len(ds)/2]
}

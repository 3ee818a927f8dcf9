package ramiel

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/exec"
)

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
// differs is an error and no speedup. Then reps pairs (at least one) are
// timed, one lane and lanes alternating, so drifting host load hits both.
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
	run := func(s *Session, side string, check bool) (time.Duration, error) {
		t0 := time.Now()
		got, err := s.Run(ctx, feeds)
		took := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("ramiel: %s run: %w", side, err)
		}
		if check {
			for k, w := range want {
				if g := got[k]; g == nil || !g.AllClose(w, 1e-4, 1e-5) {
					return 0, fmt.Errorf("ramiel: %s output %q differs from the sequential reference", side, k)
				}
			}
		}
		return took, nil
	}
	reps = max(reps, 1)
	var one, par []time.Duration
	for i := 0; i <= reps; i++ {
		a, err := run(oneLane, "one-lane", i == 0)
		if err != nil {
			return Speedup{}, err
		}
		b, err := run(lanes, "lane plan", i == 0)
		if err != nil {
			return Speedup{}, err
		}
		if i > 0 {
			one, par = append(one, a), append(par, b)
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

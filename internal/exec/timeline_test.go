package exec

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/obs"
)

// TestPlanTimelineCapture runs the two-lane plan with the flight recorder
// on and checks the sampled run carries op spans for every node plus the
// cross-lane wait/send events the split creates.
func TestPlanTimelineCapture(t *testing.T) {
	g, feeds := smallGraph()
	plan := twoLanePlan(t, g)
	tl := plan.EnableTimeline(1, 4)
	for i := 0; i < 3; i++ {
		if _, err := plan.Execute(context.Background(), feeds, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tl.Runs() != 3 {
		t.Fatalf("Runs() = %d, want 3", tl.Runs())
	}
	r := plan.LastTimeline()
	if r == nil {
		t.Fatal("no timeline recorded")
	}
	if !r.Complete || r.Lanes != 2 {
		t.Fatalf("run = %+v", r)
	}
	var ops, waits, sends int
	nodes := map[string]bool{}
	for _, s := range r.Spans {
		switch s.Kind {
		case obs.SpanOp:
			ops++
			nodes[s.Name] = true
			if s.Peer != -1 {
				t.Errorf("op span %q peer = %d", s.Name, s.Peer)
			}
		case obs.SpanRecvWait:
			waits++
			if s.Peer < 0 || int(s.Peer) >= r.Lanes {
				t.Errorf("wait span %q peer = %d", s.Name, s.Peer)
			}
		case obs.SpanSend:
			sends++
		}
	}
	if ops != len(g.Nodes) {
		t.Errorf("%d op spans, want %d", ops, len(g.Nodes))
	}
	for _, n := range g.Nodes {
		if !nodes[n.Name] {
			t.Errorf("node %q missing from timeline", n.Name)
		}
	}
	// The split creates a transfer each way: vr (lane0 -> lane1) and
	// vn (lane1 -> lane0).
	if sends < 2 || waits < 2 {
		t.Errorf("sends=%d waits=%d, want >= 2 each", sends, waits)
	}

	// Off by default elsewhere: a fresh plan records nothing.
	fresh := twoLanePlan(t, g)
	if _, err := fresh.Execute(context.Background(), feeds, nil); err != nil {
		t.Fatal(err)
	}
	if fresh.LastTimeline() != nil {
		t.Error("plan without EnableTimeline recorded a run")
	}
	// And DisableTimeline stops sampling.
	plan.DisableTimeline()
	if _, err := plan.Execute(context.Background(), feeds, nil); err != nil {
		t.Fatal(err)
	}
	if tl.Runs() != 3 {
		t.Errorf("detached recorder advanced to %d runs", tl.Runs())
	}
}

// TestCriticalPathFromTimeline checks the measured-path walk: it must span
// the run from (near) start to the last op, be time-ordered, and report
// totals consistent with the wall time.
func TestCriticalPathFromTimeline(t *testing.T) {
	g, feeds := smallGraph()
	plan := twoLanePlan(t, g)
	plan.EnableTimeline(1, 2)
	if _, err := plan.Execute(context.Background(), feeds, nil); err != nil {
		t.Fatal(err)
	}
	r := plan.LastTimeline()
	rep, err := plan.CriticalPathFromTimeline(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) == 0 {
		t.Fatal("empty critical path")
	}
	// The path ends at the last-finishing op and is time-ordered.
	for i := 1; i < len(rep.Steps); i++ {
		if rep.Steps[i].StartNs < rep.Steps[i-1].StartNs {
			t.Errorf("step %d starts before its predecessor", i)
		}
	}
	lastStep := rep.Steps[len(rep.Steps)-1]
	if lastStep.Node != "a" {
		t.Errorf("path ends at %q, want the sink node \"a\"", lastStep.Node)
	}
	if rep.OpNs <= 0 || rep.WallNs <= 0 {
		t.Errorf("OpNs=%d WallNs=%d, want positive", rep.OpNs, rep.WallNs)
	}
	if rep.OpNs+rep.WaitNs > 4*rep.WallNs {
		t.Errorf("path time %d way beyond wall %d", rep.OpNs+rep.WaitNs, rep.WallNs)
	}
	if len(rep.PredictedPath) == 0 || rep.PredictedCost <= 0 {
		t.Errorf("missing static prediction: %+v", rep)
	}
	if rep.Overlap < 0 || rep.Overlap > 1 {
		t.Errorf("Overlap = %v, want [0,1]", rep.Overlap)
	}
	// No timeline -> error, not a nil-pointer crash.
	if _, err := plan.CriticalPathFromTimeline(nil, nil); err == nil {
		t.Error("nil timeline accepted")
	}
}

// TestPlanCalibrate checks the live-counter calibration report against the
// small graph: every op type appears, ratios are positive, and the measured
// model it emits covers every node.
func TestPlanCalibrate(t *testing.T) {
	g, feeds := smallGraph()
	plan := twoLanePlan(t, g)
	if c := plan.Calibrate(nil); c != nil {
		t.Fatalf("calibration before any run: %+v", c)
	}
	for i := 0; i < 4; i++ {
		if _, err := plan.Execute(context.Background(), feeds, nil); err != nil {
			t.Fatal(err)
		}
	}
	c := plan.Calibrate(cost.DefaultModel())
	if c == nil {
		t.Fatal("nil calibration after runs")
	}
	if c.Nodes != len(g.Nodes) {
		t.Errorf("Nodes = %d, want %d", c.Nodes, len(g.Nodes))
	}
	if c.BaselineUsPerWt <= 0 {
		t.Errorf("baseline = %v", c.BaselineUsPerWt)
	}
	if c.RankCorrelation < -1 || c.RankCorrelation > 1 {
		t.Errorf("rank correlation = %v", c.RankCorrelation)
	}
	seen := map[string]bool{}
	for _, oc := range c.Ops {
		seen[oc.Op] = true
		if oc.Count != 4 {
			t.Errorf("%s count = %d, want 4", oc.Op, oc.Count)
		}
		if oc.MeanUs <= 0 || oc.Ratio <= 0 || oc.StaticWt <= 0 {
			t.Errorf("%s: %+v", oc.Op, oc)
		}
	}
	for _, op := range []string{"Relu", "Sigmoid", "Neg", "Add"} {
		if !seen[op] {
			t.Errorf("op %s missing from calibration", op)
		}
	}
	if len(c.Worst) == 0 || len(c.Worst) > 5 {
		t.Errorf("Worst has %d entries", len(c.Worst))
	}
}

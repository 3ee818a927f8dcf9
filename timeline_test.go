package ramiel_test

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	ramiel "repro"
)

// TestTimelineOffZeroAllocs pins the flight recorder's off-path cost on the
// steady-state run loop: a program with no recorder and a program whose
// recorder is attached but not sampling this run must allocate identically.
// The recorder's unsampled path is one atomic pointer load plus an atomic
// counter increment — no allocations, so enabling sampling at a large
// interval leaves the hot loop untouched between samples.
func TestTimelineOffZeroAllocs(t *testing.T) {
	build := func() *ramiel.Program {
		g, err := ramiel.BuildModel("squeezenet", ramiel.ModelConfig{ImageSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ramiel.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	base := build()
	timed := build()
	// Sampled runs allocate, so push the next sample far away; run 1 is
	// always sampled, and the warm-up below consumes it.
	timed.EnableTimeline(1<<30, 1)

	ctx := context.Background()
	feeds := ramiel.RandomInputs(base.Graph, 1)
	sessBase := base.NewSession()
	sessTimed := timed.NewSession()
	for i := 0; i < 3; i++ {
		if _, err := sessBase.Run(ctx, feeds); err != nil {
			t.Fatal(err)
		}
		if _, err := sessTimed.Run(ctx, feeds); err != nil {
			t.Fatal(err)
		}
	}
	if timed.LastTimeline() == nil {
		t.Fatal("warm-up did not consume the first sample")
	}

	run := func(s *ramiel.Session) func() {
		return func() {
			if _, err := s.Run(ctx, feeds); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocsBase := testing.AllocsPerRun(20, run(sessBase))
	allocsTimed := testing.AllocsPerRun(20, run(sessTimed))
	if allocsTimed > allocsBase {
		t.Errorf("timeline-off run allocates more: %v > %v allocs/run",
			allocsTimed, allocsBase)
	}
	t.Logf("allocs/run: baseline %.0f, recorder attached but idle %.0f",
		allocsBase, allocsTimed)
}

// TestTimelineChromeTraceAcceptance is the PR's acceptance check: the
// exported trace of a bundled model is valid Chrome trace-event JSON and
// its per-op durations sum to within 10% of the run's measured execution
// busy time (the growth of the program's op counters over the same run).
func TestTimelineChromeTraceAcceptance(t *testing.T) {
	g, err := ramiel.BuildModel("squeezenet", ramiel.ModelConfig{ImageSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ramiel.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	prog.EnableTimeline(1, 2)
	sess := prog.NewSession()
	ctx := context.Background()
	feeds := ramiel.RandomInputs(g, 1)
	// Warm once so the measured run reuses the arena steady state.
	if _, err := sess.Run(ctx, feeds); err != nil {
		t.Fatal(err)
	}
	opNs := func() (ns int64) {
		for _, o := range prog.OpTotals() {
			ns += o.TotalNs
		}
		return ns
	}
	before := opNs()
	if _, err := sess.Run(ctx, feeds); err != nil {
		t.Fatal(err)
	}
	busy := time.Duration(opNs() - before)
	tl := prog.LastTimeline()
	if tl == nil {
		t.Fatal("missing timeline")
	}

	data, err := tl.ChromeTrace(g.Name)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	var opEvents int
	var opUs float64
	for _, e := range file.TraceEvents {
		if e.Ph == "X" && e.Cat == "op" {
			opEvents++
			if e.Dur == nil {
				t.Fatalf("op event %q without dur", e.Name)
			}
			opUs += *e.Dur
		}
	}
	if opEvents != len(prog.Graph.Nodes) {
		t.Errorf("%d op events, want %d (one per compiled node)",
			opEvents, len(prog.Graph.Nodes))
	}

	// The op counters accumulate the same kernel timings the timeline
	// records span-by-span; the two views of the run must agree.
	opTime := time.Duration(opUs * float64(time.Microsecond))
	diff := opTime - busy
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.10*float64(busy) {
		t.Errorf("trace op time %v vs measured busy %v: off by %v (> 10%%)",
			opTime, busy, diff)
	}
	t.Logf("trace op time %v, measured busy %v (%.1f%% apart)",
		opTime, busy, 100*float64(diff)/float64(busy))
}

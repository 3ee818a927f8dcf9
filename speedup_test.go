package ramiel_test

import (
	"strings"
	"sync"
	"testing"

	ramiel "repro"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// probeCalls records, in call order, the "tag" attribute of every
// SpeedupProbe kernel call.
var (
	probeOnce  sync.Once
	probeMu    sync.Mutex
	probeCalls []int
)

func registerSpeedupProbe(t *testing.T) {
	t.Helper()
	probeOnce.Do(func() {
		err := ops.Register("SpeedupProbe", func(in []*tensor.Tensor, attrs ops.Attrs, a tensor.Allocator) ([]*tensor.Tensor, error) {
			probeMu.Lock()
			probeCalls = append(probeCalls, attrs.Int("tag", -1))
			probeMu.Unlock()
			out := tensor.New(in[0].Shape(), tensor.AllocUninit(a, in[0].Numel()))
			copy(out.Data(), in[0].Data())
			return []*tensor.Tensor{out}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// probeProgram compiles x -> SpeedupProbe{tag} -> out.
func probeProgram(t *testing.T, tag int) *ramiel.Program {
	t.Helper()
	g := graph.New("probe")
	g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{4}}}
	g.AddNode("p", "SpeedupProbe", []string{"x"}, []string{"out"}, ops.Attrs{"tag": tag})
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	prog, err := ramiel.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestMeasureSpeedupAlternatesPairs: after the one sequential reference
// run, MeasureSpeedup runs one warm-up pair (one run of each side), then
// reps timed samples per side, the baseline's one-lane plan first and the
// program's lanes second in every pair. The probe runs in microseconds, so
// each sample repeats its side until the sample's minimum duration has
// passed: no sample is a single run.
func TestMeasureSpeedupAlternatesPairs(t *testing.T) {
	registerSpeedupProbe(t)
	base, prog := probeProgram(t, 0), probeProgram(t, 1)
	probeMu.Lock()
	probeCalls = nil
	probeMu.Unlock()

	const reps = 3
	sp, err := ramiel.MeasureSpeedup(prog, base, reps)
	if err != nil {
		t.Fatal(err)
	}
	if sp.OneLane <= 0 || sp.Lanes <= 0 || sp.X() <= 0 {
		t.Errorf("speedup %+v (%.2fx): want positive medians", sp, sp.X())
	}
	probeMu.Lock()
	calls := append([]int(nil), probeCalls...)
	probeMu.Unlock()
	if len(calls) == 0 || calls[0] != 0 {
		t.Fatalf("first kernel call %v, want the baseline's sequential reference", calls[:min(len(calls), 1)])
	}
	// Group the later calls into runs of one side: {tag, calls}.
	var groups [][2]int
	for _, tag := range calls[1:] {
		if n := len(groups); n > 0 && groups[n-1][0] == tag {
			groups[n-1][1]++
		} else {
			groups = append(groups, [2]int{tag, 1})
		}
	}
	if len(groups) != 2*(1+reps) {
		t.Fatalf("call groups %v, want %d alternating groups", groups, 2*(1+reps))
	}
	for i, g := range groups {
		if g[0] != i%2 {
			t.Fatalf("call groups %v: group %d is tag %d, want %d", groups, i, g[0], i%2)
		}
	}
	if groups[0][1] != 1 || groups[1][1] != 1 {
		t.Errorf("warm-up pair ran %d and %d times, want once each", groups[0][1], groups[1][1])
	}
	for i, g := range groups[2:] {
		if g[1] < 2 {
			t.Errorf("sample %d (tag %d) ran %d time(s), want repeated runs", i, g[0], g[1])
		}
	}
}

// TestMeasureSpeedupRejectsWrongOutputs: a program whose outputs differ
// from its baseline's sequential run (one constant changed after compile)
// yields an error and no speedup.
func TestMeasureSpeedupRejectsWrongOutputs(t *testing.T) {
	build := func() *ramiel.Program {
		g := graph.New("scale")
		g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{4}}}
		g.Initializers["c"] = tensor.New(tensor.Shape{4}, []float32{1, 2, 3, 4})
		g.AddNode("m", "Mul", []string{"x", "c"}, []string{"out"}, nil)
		g.Outputs = []graph.ValueInfo{{Name: "out"}}
		prog, err := ramiel.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	base, prog := build(), build()
	if _, err := ramiel.MeasureSpeedup(prog, base, 1); err != nil {
		t.Fatalf("identical programs: %v", err)
	}
	prog.Graph.Initializers["c"].Data()[3] = 5
	sp, err := ramiel.MeasureSpeedup(prog, base, 1)
	if err == nil || !strings.Contains(err.Error(), "differs from the sequential reference") {
		t.Fatalf("changed constant: err = %v, want an output mismatch", err)
	}
	if sp != (ramiel.Speedup{}) {
		t.Errorf("changed constant still returned a speedup %+v", sp)
	}
}

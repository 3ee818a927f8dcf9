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
// run, MeasureSpeedup runs exactly one warm-up pair plus reps timed pairs,
// each pair the baseline's one-lane plan first and the program's lanes
// second.
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
	want := []int{0} // the RunSequential reference
	for i := 0; i < 1+reps; i++ {
		want = append(want, 0, 1)
	}
	probeMu.Lock()
	got := append([]int(nil), probeCalls...)
	probeMu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("kernel calls %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kernel calls %v, want %v", got, want)
		}
	}
	if sp.OneLane <= 0 || sp.Lanes <= 0 || sp.X() <= 0 {
		t.Errorf("speedup %+v (%.2fx): want positive medians", sp, sp.X())
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

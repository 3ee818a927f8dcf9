package ramiel_test

import (
	"context"
	"sync"
	"testing"

	ramiel "repro"
)

// TestProgramRunConcurrent proves the serving invariant on a real zoo
// model: one compiled Program handles many simultaneous Run calls (run
// with -race), each producing the sequential reference output.
func TestProgramRunConcurrent(t *testing.T) {
	g, err := ramiel.BuildModel("squeezenet", ramiel.ModelConfig{ImageSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ramiel.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	feeds := ramiel.RandomInputs(g, 7)
	ref, err := prog.RunSequential(feeds)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, iters = 8, 3
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				out, err := prog.NewSession(ramiel.WithoutArena()).Run(context.Background(), feeds)
				if err != nil {
					t.Error(err)
					return
				}
				for name, want := range ref {
					if got := out[name]; got == nil || !got.AllClose(want, 1e-4, 1e-5) {
						t.Errorf("output %q diverged from sequential reference", name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestHyperclusteredRunConcurrent does the same through a hyperclustered
// batch plan — the micro-batcher's execution path.
func TestHyperclusteredRunConcurrent(t *testing.T) {
	g, err := ramiel.BuildModel("squeezenet", ramiel.ModelConfig{ImageSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	base, err := ramiel.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 2
	prog, err := base.Hypercluster(batch, false)
	if err != nil {
		t.Fatal(err)
	}

	// Batch feeds: the same sample replicated, so every sample must match
	// the batch-1 sequential reference.
	feeds := ramiel.RandomInputs(g, 11)
	ref, err := base.RunSequential(feeds)
	if err != nil {
		t.Fatal(err)
	}
	batched := ramiel.Env{}
	for name, tns := range feeds {
		for s := 0; s < batch; s++ {
			batched[ramiel.SampleValueName(name, s)] = tns
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := prog.NewSession(ramiel.WithoutArena()).Run(context.Background(), batched)
			if err != nil {
				t.Error(err)
				return
			}
			for name, got := range out {
				want := ref[ramiel.BaseValueName(name)]
				if want == nil || !got.AllClose(want, 1e-4, 1e-5) {
					t.Errorf("batched output %q diverged from reference", name)
					return
				}
			}
		}()
	}
	wg.Wait()
}

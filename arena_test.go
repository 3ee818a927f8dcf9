package ramiel_test

import (
	"context"
	"sync"
	"testing"

	ramiel "repro"
	"repro/internal/serve"
)

// Allocation bounds for one steady-state batch-1 request to a 16 px
// squeezenet server (serve.Server.Infer, unbatched): the count measured
// with warm session arenas, and the looser bound that holds under the race
// detector, where sync.Pool drops pooled sessions at random and a request
// sometimes builds a fresh session and arena (213–219 measured there).
const (
	maxArenaAllocs     = 213
	maxArenaAllocsRace = 245
)

// TestArenaSteadyStateAllocations is the allocation-regression guard:
// once the per-worker arena is warm, a batch-1 inference performs no
// per-request tensor allocations beyond the escaping outputs — observable
// both as flat arena misses and as an absolute allocation count per
// request.
func TestArenaSteadyStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting in -short mode")
	}
	s := serve.New(serve.Config{Workers: 1, MaxBatch: 1})
	t.Cleanup(func() { s.Close(context.Background()) })
	if err := s.RegisterZoo(ramiel.ModelConfig{ImageSize: 16}, "squeezenet"); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	feeds, err := s.RandomFeeds("squeezenet", 1)
	if err != nil {
		t.Fatal(err)
	}
	infer := func() {
		if _, _, err := s.Infer(context.Background(), "squeezenet", feeds, true); err != nil {
			t.Fatal(err)
		}
	}
	// Reach steady state: the worker arena's free lists hold the model's
	// full intermediate working set after the first run; a few more runs
	// settle size-class churn.
	for i := 0; i < 10; i++ {
		infer()
	}

	// 1. Arena misses stay flat up to the escaping outputs: each request
	// may permanently take at most one buffer per graph output out of the
	// free lists (squeezenet has one output), plus minimal churn. Under
	// the race detector sync.Pool intentionally drops a fraction of Put
	// items, discarding whole worker arenas, so the bound only holds in
	// normal builds.
	pre := s.ArenaStats()
	const runs = 50
	for i := 0; i < runs; i++ {
		infer()
	}
	post := s.ArenaStats()
	missDelta := post.Misses - pre.Misses
	if !raceEnabled && missDelta > 2*runs {
		t.Errorf("arena misses grew by %d over %d steady-state requests, want <= %d (outputs only)",
			missDelta, runs, 2*runs)
	}
	if post.Gets == pre.Gets {
		t.Fatal("no arena traffic recorded — arena path not exercised")
	}

	// 2. The whole request — intermediates on the arena, env maps,
	// channels, lane goroutines — stays within the measured count.
	bound := float64(maxArenaAllocs)
	if raceEnabled {
		bound = maxArenaAllocsRace
	}
	allocs := testing.AllocsPerRun(30, infer)
	if allocs > bound {
		t.Errorf("steady-state request allocates %.0f times, want <= %.0f", allocs, bound)
	}
	t.Logf("allocs/request: %.0f (bound %.0f); misses over %d runs: %d", allocs, bound, runs, missDelta)
}

// TestConcurrentArenaRunsShareProgram is the acceptance-criteria race
// test at the public API level: one compiled Program, many goroutines,
// each with an independent arena kept across its runs (run with -race).
func TestConcurrentArenaRunsShareProgram(t *testing.T) {
	g, err := ramiel.BuildModel("squeezenet", ramiel.ModelConfig{ImageSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ramiel.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	feeds := ramiel.RandomInputs(g, 7)
	want, err := prog.RunSequential(feeds)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 8, 10
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar := ramiel.NewArena()
			for j := 0; j < iters; j++ {
				got, err := prog.NewSession(ramiel.WithArena(ar)).Run(context.Background(), feeds)
				if err != nil {
					t.Errorf("concurrent arena run: %v", err)
					return
				}
				for k, w := range want {
					if !got[k].AllClose(w, 1e-5, 1e-6) {
						t.Errorf("output %q diverged under concurrent arena runs", k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMemoryPlanPublicAPI: the compiled program exposes its memory plan
// and a usable peak estimate.
func TestMemoryPlanPublicAPI(t *testing.T) {
	g, err := ramiel.BuildModel("squeezenet", ramiel.ModelConfig{ImageSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ramiel.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	mp := prog.MemoryPlan()
	if mp == nil {
		t.Fatal("MemoryPlan returned nil")
	}
	s := mp.Summary()
	if s.Managed == 0 {
		t.Fatalf("empty plan summary: %+v", s)
	}
	// The peak forecast from the program's sizing run must bracket
	// sensibly: positive, and below the unreused total (intermediates die
	// before the run ends).
	est, err := prog.MemoryEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.PeakLiveBytes <= 0 || est.TotalBytes <= 0 {
		t.Fatalf("degenerate estimate: %+v", est)
	}
	if est.PeakLiveBytes >= est.TotalBytes {
		t.Errorf("no reuse: peak live %d not below unreused total %d", est.PeakLiveBytes, est.TotalBytes)
	}
}

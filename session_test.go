package ramiel_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	ramiel "repro"
)

// compiledSqueezenet compiles the shared small squeezenet used by the
// session tests.
func compiledSqueezenet(t testing.TB, img int) (*ramiel.Program, ramiel.Env) {
	t.Helper()
	g, err := ramiel.BuildModel("squeezenet", ramiel.ModelConfig{ImageSize: img})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ramiel.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return prog, ramiel.RandomInputs(g, 42)
}

// TestSessionArenaOptionsAgree: the arena is a session option, not a
// second implementation — the default session-owned arena and a
// caller-owned arena produce the same outputs, and WithArena(nil) keeps the
// session's own arena, so Session.Arena is never nil.
func TestSessionArenaOptionsAgree(t *testing.T) {
	prog, feeds := compiledSqueezenet(t, 16)
	ctx := context.Background()

	want, err := prog.NewSession().Run(ctx, feeds)
	if err != nil {
		t.Fatal(err)
	}
	own := ramiel.NewArena()
	for name, opt := range map[string]ramiel.SessionOption{
		"WithArena":      ramiel.WithArena(own),
		"WithArena(nil)": ramiel.WithArena(nil),
	} {
		got, err := prog.NewSession(opt).Run(ctx, feeds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s returned %d outputs, default session returned %d", name, len(got), len(want))
		}
		for k, w := range want {
			if got[k] == nil || !got[k].Equal(w) {
				t.Errorf("%s: output %q differs from the default session", name, k)
			}
		}
	}
	if s := prog.NewSession(ramiel.WithArena(own)); s.Arena() != own {
		t.Error("WithArena(a) session does not run on a")
	}
	if s := prog.NewSession(ramiel.WithArena(nil)); s.Arena() == nil || s.Arena() == own {
		t.Error("WithArena(nil) session has no arena of its own")
	}
	if prog.NewSession().Arena() == nil {
		t.Error("default session has no arena")
	}
}

// TestSessionMatchesSequentialZoo: every zoo model's lane plan, run twice
// on one session — first on a cold arena, then on a warm one that hands
// out recycled buffers and runs in-place kernels over them — matches the
// heap reference RunSequential within MeasureSpeedup's tolerance.
func TestSessionMatchesSequentialZoo(t *testing.T) {
	for _, name := range ramiel.ModelNames() {
		t.Run(name, func(t *testing.T) {
			g, err := ramiel.BuildModel(name, ramiel.ModelConfig{ImageSize: 32})
			if err != nil {
				t.Fatal(err)
			}
			prog, err := ramiel.Compile(g)
			if err != nil {
				t.Fatal(err)
			}
			feeds := ramiel.RandomInputs(g, 3)
			want, err := prog.RunSequential(feeds)
			if err != nil {
				t.Fatal(err)
			}
			sess := prog.NewSession()
			for _, run := range []string{"cold", "warm"} {
				hits := sess.Arena().Stats().Hits.Load()
				got, err := sess.Run(context.Background(), feeds)
				if err != nil {
					t.Fatalf("%s run: %v", run, err)
				}
				for k, w := range want {
					if got[k] == nil || !got[k].AllClose(w, 1e-4, 1e-5) {
						t.Errorf("%s run: output %q differs from RunSequential", run, k)
					}
				}
				if run == "warm" && sess.Arena().Stats().Hits.Load() == hits {
					t.Error("warm run recycled no arena buffer")
				}
			}
		})
	}
}

// TestValidateFeeds: every class of bad feed is named in one clear error
// before any lane starts.
func TestValidateFeeds(t *testing.T) {
	prog, feeds := compiledSqueezenet(t, 16)

	if err := prog.ValidateFeeds(feeds); err != nil {
		t.Fatalf("valid feeds rejected: %v", err)
	}

	if err := prog.ValidateFeeds(ramiel.Env{}); err == nil || !strings.Contains(err.Error(), "missing inputs: input") {
		t.Errorf("missing input not named: %v", err)
	}

	bad := ramiel.Env{"input": ramiel.ZerosTensor(1, 3, 8, 8)}
	err := prog.ValidateFeeds(bad)
	if err == nil || !strings.Contains(err.Error(), "shape mismatch") || !strings.Contains(err.Error(), "input") {
		t.Errorf("shape mismatch not named: %v", err)
	}

	extra := ramiel.Env{}
	for k, v := range feeds {
		extra[k] = v
	}
	extra["bogus"] = ramiel.ZerosTensor(1)
	if err := prog.ValidateFeeds(extra); err == nil || !strings.Contains(err.Error(), "unknown inputs: bogus") {
		t.Errorf("unknown input not named: %v", err)
	}

	// Session.Run applies the same validation up front, so the error is
	// the readable one, not a lane failure.
	if _, err := prog.NewSession().Run(context.Background(), ramiel.Env{}); err == nil ||
		!strings.Contains(err.Error(), "missing inputs") {
		t.Errorf("Session.Run missing-feed error: %v", err)
	}
}

// TestSessionCancelMidRunConcurrent is the mid-run cancellation
// acceptance test (run with -race): cancel while lanes are busy, assert
// the run returns context.Canceled before completing, that no goroutines
// leak, and that the session — including its arena — is reusable
// afterward.
func TestSessionCancelMidRunConcurrent(t *testing.T) {
	prog, feeds := compiledSqueezenet(t, 64) // big enough to cancel mid-flight
	want, err := prog.RunSequential(feeds)
	if err != nil {
		t.Fatal(err)
	}
	sess := prog.NewSession() // default: session-owned arena
	before := runtime.NumGoroutine()

	cancelled := false
	for attempt := 0; attempt < 25 && !cancelled; attempt++ {
		// Ramp the cancel delay from 50µs: a fixed delay razes the test
		// when kernel speedups shrink the whole run below it, while the
		// ramp guarantees some attempt lands mid-flight on any host.
		delay := time.Duration(attempt+1) * 50 * time.Microsecond
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(delay)
			cancel()
		}()
		_, runErr := sess.Run(ctx, feeds)
		wg.Wait()
		cancel()
		switch {
		case runErr == nil:
			// Run finished before the cancel landed; try again.
		case errors.Is(runErr, context.Canceled):
			cancelled = true
		default:
			t.Fatalf("cancelled session run failed with non-context error: %v", runErr)
		}
	}
	if !cancelled {
		t.Fatal("never observed a mid-run cancellation in 25 attempts")
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines grew from %d to %d after cancelled session runs", before, n)
	}

	// The session (and its arena) survives cancellation: the next run
	// succeeds and still matches the sequential reference.
	got, err := sess.Run(context.Background(), feeds)
	if err != nil {
		t.Fatalf("session run after cancellation: %v", err)
	}
	for k, w := range want {
		if got[k] == nil || !got[k].AllClose(w, 1e-4, 1e-5) {
			t.Errorf("post-cancellation output %q diverged from sequential reference", k)
		}
	}
}

// TestSessionBusyConcurrentRun: overlapping Run calls on one session are
// rejected with ErrSessionBusy instead of corrupting shared state.
func TestSessionBusyConcurrentRun(t *testing.T) {
	prog, feeds := compiledSqueezenet(t, 64)
	sess := prog.NewSession()
	// Probe with a pre-cancelled context: a busy session reports
	// ErrSessionBusy before looking at ctx, while an idle one returns
	// context.Canceled without doing any work — a cheap busy detector.
	probeCtx, probeCancel := context.WithCancel(context.Background())
	probeCancel()
	for attempt := 0; attempt < 10; attempt++ {
		first := make(chan error, 1)
		go func() { _, err := sess.Run(context.Background(), feeds); first <- err }()
		// Probe until the main run completes, so the probes are guaranteed
		// to overlap it once it gets scheduled.
		var busy bool
		var err error
		var finished bool
		for !finished {
			select {
			case err = <-first:
				finished = true
			default:
				if _, perr := sess.Run(probeCtx, feeds); errors.Is(perr, ramiel.ErrSessionBusy) {
					busy = true
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
		// The probes themselves can win the flag for an instant, bouncing
		// the main run; that counts as an observed exclusion too.
		if err != nil && !errors.Is(err, ramiel.ErrSessionBusy) {
			t.Fatal(err)
		}
		if busy || errors.Is(err, ramiel.ErrSessionBusy) {
			return
		}
	}
	t.Fatal("never observed ErrSessionBusy while a run was in flight")
}

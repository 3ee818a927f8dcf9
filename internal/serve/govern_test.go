package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	ramiel "repro"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// ChaosSleep is a custom op that sleeps for data[0] milliseconds before
// acting as identity — a wedged kernel on demand, selected per request by
// the feed data. It cannot observe the run context (kernels don't), which
// is exactly the scenario the stuck-run watchdog exists for.
var chaosSleepOnce sync.Once

func registerChaosSleep(t testing.TB) {
	t.Helper()
	chaosSleepOnce.Do(func() {
		err := ops.Register("ChaosSleep", func(in []*tensor.Tensor, attrs ops.Attrs, a tensor.Allocator) ([]*tensor.Tensor, error) {
			if ms := in[0].Data()[0]; ms > 0 {
				time.Sleep(time.Duration(ms) * time.Millisecond)
			}
			out := tensor.New(in[0].Shape(), tensor.AllocUninit(a, in[0].Numel()))
			copy(out.Data(), in[0].Data())
			return []*tensor.Tensor{out}, nil
		})
		if err != nil {
			panic(err)
		}
	})
}

// sleepyModel is x -> ChaosSleep -> out.
func sleepyModel() *ramiel.Graph {
	g := graph.New("sleepy")
	g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{4}}}
	g.AddNode("s", "ChaosSleep", []string{"x"}, []string{"out"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	return g
}

// TestMemGovernorBoundary drives the admission arithmetic on a fake
// estimate table: admit while projected ≤ budget, shed one request past
// it, admit again after a release.
func TestMemGovernorBoundary(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 1, MemBudgetBytes: 1000, NoArena: true})
	defer s.Close(context.Background())
	s.RegisterGraph("tiny", tinyModel())
	g := s.gov
	if g == nil {
		t.Fatal("MemBudgetBytes set but governor is nil")
	}
	g.setEstimate("tiny", 400)

	r1, ok := g.admit(s, "tiny")
	if !ok || r1 != 400 {
		t.Fatalf("admit #1 = (%d, %v), want (400, true)", r1, ok)
	}
	r2, ok := g.admit(s, "tiny")
	if !ok || r2 != 400 {
		t.Fatalf("admit #2 = (%d, %v), want (400, true)", r2, ok)
	}
	// 400 + 400 + 400 > 1000: the third concurrent request sheds.
	if _, ok := g.admit(s, "tiny"); ok {
		t.Fatal("admit #3 passed with projected 1200 over budget 1000")
	}
	snap := s.MemoryStats()
	if !snap.Enabled || snap.BudgetBytes != 1000 || snap.ReservedBytes != 800 {
		t.Fatalf("MemoryStats = %+v, want enabled, budget 1000, reserved 800", snap)
	}
	if snap.HeadroomBytes != 200 || snap.Sheds != 1 {
		t.Fatalf("headroom/sheds = %d/%d, want 200/1", snap.HeadroomBytes, snap.Sheds)
	}
	if h, known := s.MemHeadroom(); !known || h != 200 {
		t.Fatalf("MemHeadroom = (%d, %v), want (200, true)", h, known)
	}
	g.release(r1)
	if _, ok := g.admit(s, "tiny"); !ok {
		t.Fatal("admit after release shed; reservation not returned")
	}

	// A model with no forecast (cold, or unsizable) admits and reserves
	// nothing — shedding on a guess the governor does not have is wrong.
	g.setEstimate("unknown", 0)
	if r, ok := g.admit(s, "unknown"); !ok || r != 0 {
		t.Fatalf("admit unknown-estimate = (%d, %v), want (0, true)", r, ok)
	}
}

// TestMemoryShedSurface: a request whose projected working set exceeds the
// budget is shed with cause "memory" — 429 plus a Retry-After hint over
// HTTP — and the governance counters/gauges show up on /v1/stats and
// /metrics.
func TestMemoryShedSurface(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 1, MemBudgetBytes: 4096})
	defer s.Close(context.Background())
	s.RegisterGraph("tiny", tinyModel())
	s.MarkReady()
	// Forecast far past the budget: every request sheds at admission.
	s.gov.setEstimate("tiny", 1<<20)

	_, _, err := s.Infer(context.Background(), "tiny", tinyFeeds(1), false)
	if !errors.Is(err, ErrMemoryPressure) {
		t.Fatalf("Infer err = %v, want ErrMemoryPressure", err)
	}
	if got := causeOf(err); got != CauseMemory {
		t.Fatalf("causeOf = %v, want memory", got)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json",
		strings.NewReader(`{"model":"tiny","inputs":{"x":{"shape":[4],"data":[1,2,3,4]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("memory shed carries no Retry-After header")
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Cause != "memory" {
		t.Errorf("error cause = %q, want memory", er.Cause)
	}

	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st struct {
		Memory MemoryStatsSnapshot `json:"memory"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Memory.Enabled || st.Memory.BudgetBytes != 4096 || st.Memory.Sheds < 2 {
		t.Errorf("stats memory block = %+v, want enabled, budget 4096, sheds >= 2", st.Memory)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, family := range []string{"ramield_mem_budget_bytes", "ramield_mem_headroom_bytes", "ramield_mem_sheds_total", "ramield_watchdog_kills_total"} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}

// TestArenaBudgetExhaustionMidRun: a run that outgrows the arena budget
// mid-flight fails alone with cause "memory", the shared arena reconciles
// to zero in-use bytes, and the session that hit the budget is dropped
// instead of re-pooled. Run with -race: the denial panic crosses the lane
// recover while companions unwind.
func TestArenaBudgetExhaustionMidRun(t *testing.T) {
	s := New(Config{Workers: 2, MaxBatch: 1, MemBudgetBytes: 1})
	defer s.Close(context.Background())
	s.RegisterGraph("tiny", tinyModel())
	s.MarkReady()
	// Pin the admission forecast at "unknown" so every request is admitted
	// and the denial happens inside the run, not at the door.
	s.gov.setEstimate("tiny", 0)

	const clients, perClient = 8, 3
	var wg sync.WaitGroup
	errs := make([]error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				_, _, errs[c*perClient+i] = s.Infer(context.Background(), "tiny", tinyFeeds(float32(i)), false)
			}
		}(c)
	}
	wg.Wait()

	for i, err := range errs {
		if err == nil {
			t.Fatalf("request %d succeeded under a 1-byte arena budget", i)
		}
		if !errors.Is(err, tensor.ErrArenaBudget) {
			t.Fatalf("request %d err = %v, want ErrArenaBudget", i, err)
		}
		if got := causeOf(err); got != CauseMemory {
			t.Fatalf("request %d causeOf = %v, want memory", i, got)
		}
	}
	arena, ok := s.ArenaStats()
	if !ok {
		t.Fatal("arena disabled")
	}
	if arena.InUseBytes != 0 {
		t.Errorf("InUseBytes = %d after budget-failed runs, want 0 (arena not reconciled)", arena.InUseBytes)
	}
	if arena.BudgetDenials < int64(clients*perClient) {
		t.Errorf("BudgetDenials = %d, want >= %d", arena.BudgetDenials, clients*perClient)
	}
	snap := s.MemoryStats()
	if snap.SessionDrops < 1 {
		t.Errorf("SessionDrops = %d, want >= 1 (budget-failed session re-pooled?)", snap.SessionDrops)
	}
	if snap.ArenaDenials != arena.BudgetDenials {
		t.Errorf("stats denials %d != arena denials %d", snap.ArenaDenials, arena.BudgetDenials)
	}
}

// TestWatchdogKillsStuckRun: a kernel wedged in a sleep (no context
// cooperation at all) is force-cancelled once the run exceeds the
// watchdog's limit; the request fails with cause "watchdog" well before
// the kernel would have finished, the kill is counted, and the server
// keeps serving.
func TestWatchdogKillsStuckRun(t *testing.T) {
	registerChaosSleep(t)
	s := New(Config{Workers: 2, MaxBatch: 1, WatchdogFloor: 100 * time.Millisecond})
	defer s.Close(context.Background())
	s.RegisterGraph("sleepy", sleepyModel())
	s.MarkReady()

	// data[0] = 1500 → the kernel sleeps 1.5s; with no latency samples yet
	// the kill limit is the 100ms floor.
	start := time.Now()
	_, _, err := s.Infer(context.Background(), "sleepy", tinyFeeds(1500), false)
	took := time.Since(start)
	if err == nil {
		t.Fatal("wedged run reported success")
	}
	if !errors.Is(err, ErrWatchdogKilled) {
		t.Fatalf("err = %v, want ErrWatchdogKilled", err)
	}
	if got := causeOf(err); got != CauseWatchdog {
		t.Fatalf("causeOf = %v, want watchdog", got)
	}
	if took > time.Second {
		t.Errorf("killed request took %v, want well under the kernel's 1.5s sleep", took)
	}
	if got := s.MemoryStats().WatchdogKills; got != 1 {
		t.Errorf("WatchdogKills = %d, want 1", got)
	}
	if got := s.MemoryStats().WatchdogKills; got != 1 {
		t.Errorf("MemoryStats().WatchdogKills = %d, want 1 (even with governance off)", got)
	}

	// The worker the sleeper holds frees itself when the sleep ends; the
	// other worker serves immediately meanwhile.
	if _, _, err := s.Infer(context.Background(), "sleepy", tinyFeeds(0), false); err != nil {
		t.Fatalf("request after watchdog kill failed: %v", err)
	}
	if got := s.modelStats("sleepy").Snapshot().ErrorsByCause[CauseWatchdog.String()]; got != 1 {
		t.Errorf("errors_by_cause[watchdog] = %d, want 1", got)
	}
}

// TestWatchdogRecordsKillBeforeCancel drives one sweep directly: by the
// time the run's cancel func fires, wasKilled must already report the id,
// since the cancelled run's error path asks it at once.
func TestWatchdogRecordsKillBeforeCancel(t *testing.T) {
	w := newWatchdog(1, 3, time.Hour, false)
	defer w.stopLoop()
	const id = 42
	var seenAtCancel, cancelled bool
	sl := w.begin("m", nil, id, func() {
		cancelled = true
		seenAtCancel = w.wasKilled(id)
	})
	if sl == nil {
		t.Fatal("begin found no free slot")
	}
	w.sweep(time.Now().Add(2 * time.Hour))
	if !cancelled {
		t.Fatal("sweep past the limit did not cancel the run")
	}
	if !seenAtCancel {
		t.Error("wasKilled was false when cancel ran: the kill is recorded after the cancel")
	}
	if !w.end(sl) {
		t.Error("end did not report the kill")
	}
}

// TestWatchdogDisabled: negative WatchdogFactor turns the watchdog off —
// a slow run is left to its deadline.
func TestWatchdogDisabled(t *testing.T) {
	registerChaosSleep(t)
	s := New(Config{Workers: 1, MaxBatch: 1, WatchdogFactor: -1, WatchdogFloor: 50 * time.Millisecond})
	defer s.Close(context.Background())
	s.RegisterGraph("sleepy", sleepyModel())
	s.MarkReady()
	if s.dog != nil {
		t.Fatal("negative WatchdogFactor still built a watchdog")
	}
	// A 300ms sleep far past the floor completes untouched.
	if _, _, err := s.Infer(context.Background(), "sleepy", tinyFeeds(300), false); err != nil {
		t.Fatalf("slow run with watchdog disabled failed: %v", err)
	}
}

// TestBodyTooLarge: POST bodies past MaxBodyBytes are rejected with 413
// and cause "body_too_large" before the decoder buffers them; normal
// bodies still serve.
func TestBodyTooLarge(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 1, MaxBodyBytes: 512})
	defer s.Close(context.Background())
	s.RegisterGraph("tiny", tinyModel())
	s.MarkReady()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[` +
		strings.Repeat("1,", 4000) + `1]}}}`
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Cause != "body_too_large" {
		t.Errorf("cause = %q, want body_too_large", er.Cause)
	}

	resp2, err := http.Post(ts.URL+"/v1/infer", "application/json",
		strings.NewReader(`{"model":"tiny","inputs":{"x":{"shape":[4],"data":[1,2,3,4]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("normal-sized request status = %d, want 200", resp2.StatusCode)
	}
}

// TestNonFiniteFeedsRejected: NaN/Inf feeds fail as validation errors by
// default; NoFiniteCheck restores raw feeds.
func TestNonFiniteFeedsRejected(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 1})
	defer s.Close(context.Background())
	s.RegisterGraph("tiny", tinyModel())
	s.MarkReady()

	for name, poison := range map[string]float32{
		"nan":  float32(math.NaN()),
		"+inf": float32(math.Inf(1)),
		"-inf": float32(math.Inf(-1)),
	} {
		feeds := ramiel.Env{"x": ramiel.NewTensor(ramiel.NewShape(4), []float32{1, poison, 3, 4})}
		_, _, err := s.Infer(context.Background(), "tiny", feeds, false)
		if !errors.Is(err, ramiel.ErrInvalidFeeds) {
			t.Fatalf("%s feed: err = %v, want ErrInvalidFeeds", name, err)
		}
		if got := causeOf(err); got != CauseValidation {
			t.Errorf("%s feed: causeOf = %v, want validation", name, got)
		}
		if got, _, _ := ReplyFor(err); got != http.StatusBadRequest {
			t.Errorf("%s feed: status = %d, want 400", name, got)
		}
	}

	raw := New(Config{Workers: 1, MaxBatch: 1, NoFiniteCheck: true})
	defer raw.Close(context.Background())
	raw.RegisterGraph("tiny", tinyModel())
	raw.MarkReady()
	feeds := ramiel.Env{"x": ramiel.NewTensor(ramiel.NewShape(4), []float32{1, float32(math.NaN()), 3, 4})}
	if _, _, err := raw.Infer(context.Background(), "tiny", feeds, false); err != nil {
		t.Fatalf("NoFiniteCheck server rejected NaN feed: %v", err)
	}
}

// TestGovernanceOffHotPath pins the resource-governance cost on the
// serving fast path at zero: a server with the governor and watchdog fully
// armed allocates exactly as much per request as one with both off.
func TestGovernanceOffHotPath(t *testing.T) {
	mk := func(cfg Config) *Server {
		s := New(cfg)
		s.RegisterGraph("tiny", tinyModel())
		s.MarkReady()
		return s
	}
	base := mk(Config{Workers: 1, MaxBatch: 1, WatchdogFactor: -1})
	defer base.Close(context.Background())
	gov := mk(Config{Workers: 1, MaxBatch: 1, MemBudgetBytes: 1 << 40})
	defer gov.Close(context.Background())
	// Pre-seed the forecast so no background sizing run pollutes the
	// measurement (testing.AllocsPerRun counts process-global allocations).
	gov.gov.setEstimate("tiny", 1<<10)

	feeds := tinyFeeds(1)
	measure := func(s *Server) float64 {
		for i := 0; i < 10; i++ {
			if _, _, err := s.Infer(context.Background(), "tiny", feeds, false); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(100, func() {
			if _, _, err := s.Infer(context.Background(), "tiny", feeds, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	off, on := measure(base), measure(gov)
	// Under the race detector sync.Pool drops items at random, so the two
	// counts differ by chance; the requests above still run under -race.
	if !raceEnabled && on > off+0.5 {
		t.Errorf("governance adds allocations to the hot path: %.1f with vs %.1f without", on, off)
	}
}

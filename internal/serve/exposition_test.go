package serve_test

// Both tiers' /metrics expositions. An external test package, so that one
// file can run a fleet front over real servers: the fleet imports serve.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	ramiel "repro"
	"repro/internal/fleet"
	"repro/internal/serve"
)

// scrape GETs /metrics from h and returns the body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	return rec.Body.String()
}

// headerLines keeps the exposition's # HELP and # TYPE lines, in order.
func headerLines(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# ") {
			out = append(out, line)
		}
	}
	return out
}

func samePinned(t *testing.T, tier string, got, want []string) {
	t.Helper()
	if slices.Equal(got, want) {
		return
	}
	t.Errorf("%s /metrics families changed:\n got:\n%s\nwant:\n%s", tier, strings.Join(got, "\n"), strings.Join(want, "\n"))
}

// sleepFeeds asks the sleepy model's kernel to sleep ms milliseconds.
func sleepFeeds(ms float32) ramiel.Env {
	return ramiel.Env{"x": ramiel.NewTensor(ramiel.NewShape(4), []float32{ms, 0, 0, 0})}
}

// litServer is a server whose exposition carries every family: arena and
// memory budget on, one request served and one killed by the watchdog.
func litServer(t *testing.T) *serve.Server {
	t.Helper()
	serve.RegisterChaosSleep(t)
	s := serve.New(serve.Config{Workers: 2, MaxBatch: 1, MemBudgetBytes: 1 << 30, WatchdogFloor: 50 * time.Millisecond})
	t.Cleanup(func() { s.Close(context.Background()) })
	s.RegisterGraph("sleepy", serve.SleepyModel())
	s.MarkReady()
	ctx := context.Background()
	if _, _, err := s.Infer(ctx, "sleepy", sleepFeeds(0), false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Infer(ctx, "sleepy", sleepFeeds(400), false); !errors.Is(err, serve.ErrWatchdogKilled) {
		t.Fatalf("wedged run: err = %v, want a watchdog kill", err)
	}
	return s
}

// TestServerMetricsFamiliesPinned holds the exact HELP and TYPE lines the
// server's /metrics emits when every family is lit.
func TestServerMetricsFamiliesPinned(t *testing.T) {
	s := litServer(t)
	samePinned(t, "server", headerLines(scrape(t, s.Handler())), []string{
		`# HELP ramield_uptime_seconds Time since the serving runtime started.`,
		`# TYPE ramield_uptime_seconds gauge`,
		`# HELP ramield_ready 1 once the preload set has compiled (see /readyz).`,
		`# TYPE ramield_ready gauge`,
		`# HELP ramield_panics_total Requests failed by a recovered panic; the per-model split is errors_total{cause="panic"}.`,
		`# TYPE ramield_panics_total counter`,
		`# HELP ramield_compiles_total Model/variant compilations performed.`,
		`# TYPE ramield_compiles_total counter`,
		`# HELP ramield_compile_cache_hits_total Program cache hits.`,
		`# TYPE ramield_compile_cache_hits_total counter`,
		`# HELP ramield_compile_cache_misses_total Program cache misses.`,
		`# TYPE ramield_compile_cache_misses_total counter`,
		`# HELP ramield_compile_seconds_total Cumulative time spent compiling.`,
		`# TYPE ramield_compile_seconds_total counter`,
		`# HELP ramield_pool_workers Configured worker count.`,
		`# TYPE ramield_pool_workers gauge`,
		`# HELP ramield_pool_queue_depth Tasks accepted but not yet started.`,
		`# TYPE ramield_pool_queue_depth gauge`,
		`# HELP ramield_pool_in_flight Tasks currently executing.`,
		`# TYPE ramield_pool_in_flight gauge`,
		`# HELP ramield_pool_peak_in_flight Highest concurrent execution count observed.`,
		`# TYPE ramield_pool_peak_in_flight gauge`,
		`# HELP ramield_arena_gets_total Arena buffer requests.`,
		`# TYPE ramield_arena_gets_total counter`,
		`# HELP ramield_arena_hits_total Arena requests served from free lists.`,
		`# TYPE ramield_arena_hits_total counter`,
		`# HELP ramield_arena_misses_total Arena requests that allocated.`,
		`# TYPE ramield_arena_misses_total counter`,
		`# HELP ramield_arena_puts_total Buffers recycled back to arenas.`,
		`# TYPE ramield_arena_puts_total counter`,
		`# HELP ramield_arena_alloc_bytes_total Bytes allocated by arena misses.`,
		`# TYPE ramield_arena_alloc_bytes_total counter`,
		`# HELP ramield_arena_in_use_bytes Arena bytes handed out and not yet recycled.`,
		`# TYPE ramield_arena_in_use_bytes gauge`,
		`# HELP ramield_arena_peak_bytes Peak arena bytes in use.`,
		`# TYPE ramield_arena_peak_bytes gauge`,
		`# HELP ramield_arena_held_bytes Arena bytes parked on free lists.`,
		`# TYPE ramield_arena_held_bytes gauge`,
		`# HELP ramield_mem_budget_bytes Configured memory budget for admission and the arena cap.`,
		`# TYPE ramield_mem_budget_bytes gauge`,
		`# HELP ramield_mem_reserved_bytes Admission ledger: summed estimates of admitted, unfinished requests.`,
		`# TYPE ramield_mem_reserved_bytes gauge`,
		`# HELP ramield_mem_headroom_bytes Budget minus in-use minus reserved (the fleet routing signal).`,
		`# TYPE ramield_mem_headroom_bytes gauge`,
		`# HELP ramield_mem_sheds_total Requests rejected by memory-feasibility admission.`,
		`# TYPE ramield_mem_sheds_total counter`,
		`# HELP ramield_arena_budget_denials_total Arena buffer requests denied by the budget mid-run.`,
		`# TYPE ramield_arena_budget_denials_total counter`,
		`# HELP ramield_mem_session_drops_total Pooled sessions discarded after a budget denial.`,
		`# TYPE ramield_mem_session_drops_total counter`,
		`# HELP ramield_watchdog_kills_total Runs force-cancelled by the stuck-run watchdog.`,
		`# TYPE ramield_watchdog_kills_total counter`,
		`# HELP ramield_watchdog_kill_age_seconds Age of runs at the moment the watchdog killed them.`,
		`# TYPE ramield_watchdog_kill_age_seconds histogram`,
		`# HELP ramield_requests_total Inference requests routed to the model.`,
		`# TYPE ramield_requests_total counter`,
		`# HELP ramield_batched_requests_total Requests served inside a coalesced batch of size > 1.`,
		`# TYPE ramield_batched_requests_total counter`,
		`# HELP ramield_batch_flushes_total Micro-batch flushes executed.`,
		`# TYPE ramield_batch_flushes_total counter`,
		`# HELP ramield_batch_flushed_samples_total Requests carried by all flushes.`,
		`# TYPE ramield_batch_flushed_samples_total counter`,
		`# HELP ramield_batch_max_seen Largest coalesced batch executed.`,
		`# TYPE ramield_batch_max_seen gauge`,
		`# HELP ramield_batcher_queue_depth Requests waiting in the micro-batcher window.`,
		`# TYPE ramield_batcher_queue_depth gauge`,
		`# HELP ramield_model_in_flight Requests dispatched for the model and not yet answered (the fleet spillover signal).`,
		`# TYPE ramield_model_in_flight gauge`,
		`# HELP ramield_batch_flush_window_ns Micro-batch flush window last armed for the model (adaptive batching makes this move with load).`,
		`# TYPE ramield_batch_flush_window_ns gauge`,
		`# HELP ramield_errors_total Failed requests by cause. Canceled clients carry their own label but are excluded from error-rate SLOs by convention.`,
		`# TYPE ramield_errors_total counter`,
		`# HELP ramield_stage_duration_seconds Request latency by lifecycle stage (batch_assembly, queue_wait, execute, e2e).`,
		`# TYPE ramield_stage_duration_seconds histogram`,
		`# HELP ramield_op_invocations_total Kernel invocations by operator type.`,
		`# TYPE ramield_op_invocations_total counter`,
		`# HELP ramield_op_seconds_total Cumulative kernel wall time by operator type.`,
		`# TYPE ramield_op_seconds_total counter`,
	})
}

// litFront is a fleet front whose exposition carries every family:
// breakers on and one memory-governed replica among two.
func litFront(t *testing.T) *fleet.Front {
	t.Helper()
	var reps []fleet.Replica
	for i, budget := range []int64{1 << 30, 0} {
		s := serve.New(serve.Config{Workers: 1, MaxBatch: 1, MemBudgetBytes: budget})
		t.Cleanup(func() { s.Close(context.Background()) })
		if err := s.RegisterZoo(ramiel.ModelConfig{ImageSize: 16}, "squeezenet"); err != nil {
			t.Fatal(err)
		}
		s.MarkReady()
		reps = append(reps, fleet.NewLocal("r"+string(rune('0'+i)), s))
	}
	front := fleet.New(fleet.Config{}, reps...)
	ts := httptest.NewServer(front.Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(`{"model":"squeezenet","seed":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/infer = %d", resp.StatusCode)
		}
	}
	return front
}

// TestFrontMetricsFamiliesPinned holds the exact HELP and TYPE lines the
// fleet front's /metrics emits when every family is lit.
func TestFrontMetricsFamiliesPinned(t *testing.T) {
	front := litFront(t)
	samePinned(t, "front", headerLines(scrape(t, front.Handler())), []string{
		`# HELP ramielfe_uptime_seconds Time since the fleet front started.`,
		`# TYPE ramielfe_uptime_seconds gauge`,
		`# HELP ramielfe_ready 1 while the front is not draining and at least one replica is ready.`,
		`# TYPE ramielfe_ready gauge`,
		`# HELP ramielfe_replica_up 1 while the replica is healthy and ready.`,
		`# TYPE ramielfe_replica_up gauge`,
		`# HELP ramielfe_replica_queue_depth Requests queued on the replica (the spillover watermark input).`,
		`# TYPE ramielfe_replica_queue_depth gauge`,
		`# HELP ramielfe_replica_in_flight Requests executing on the replica.`,
		`# TYPE ramielfe_replica_in_flight gauge`,
		`# HELP ramielfe_breaker_open 1 while the replica's circuit breaker is not closed (open or half-open).`,
		`# TYPE ramielfe_breaker_open gauge`,
		`# HELP ramielfe_breaker_opens_total Circuit-breaker trips (closed/half-open to open transitions).`,
		`# TYPE ramielfe_breaker_opens_total counter`,
		`# HELP ramielfe_replica_mem_headroom_bytes Replica memory headroom (budget − in-use − reserved); routing steers away at 0. Only governed replicas appear.`,
		`# TYPE ramielfe_replica_mem_headroom_bytes gauge`,
		`# HELP ramielfe_retry_budget_tokens Whole retry-budget tokens currently available fleet-wide.`,
		`# TYPE ramielfe_retry_budget_tokens gauge`,
		`# HELP ramielfe_requests_total Requests routed through the front.`,
		`# TYPE ramielfe_requests_total counter`,
		`# HELP ramielfe_admitted_total Requests that passed admission and ran.`,
		`# TYPE ramielfe_admitted_total counter`,
		`# HELP ramielfe_pending Admitted requests not yet finished.`,
		`# TYPE ramielfe_pending gauge`,
		`# HELP ramielfe_spills_total Requests routed off their ring owner (watermark or health).`,
		`# TYPE ramielfe_spills_total counter`,
		`# HELP ramielfe_replica_errors_total Admitted requests that failed on their replica.`,
		`# TYPE ramielfe_replica_errors_total counter`,
		`# HELP ramielfe_retries_total Extra attempts launched after a retryable replica failure.`,
		`# TYPE ramielfe_retries_total counter`,
		`# HELP ramielfe_retry_wins_total Requests whose winning response came from a retry attempt.`,
		`# TYPE ramielfe_retry_wins_total counter`,
		`# HELP ramielfe_hedges_total Hedge attempts launched after HedgeDelay without an answer.`,
		`# TYPE ramielfe_hedges_total counter`,
		`# HELP ramielfe_hedge_wins_total Requests whose winning response came from a hedge attempt.`,
		`# TYPE ramielfe_hedge_wins_total counter`,
		`# HELP ramielfe_retry_budget_exhausted_total Retries or hedges forgone because the fleet-wide budget was empty.`,
		`# TYPE ramielfe_retry_budget_exhausted_total counter`,
		`# HELP ramielfe_shed_total Requests rejected by admission, by cause.`,
		`# TYPE ramielfe_shed_total counter`,
		`# HELP ramielfe_e2e_seconds End-to-end latency of admitted requests.`,
		`# TYPE ramielfe_e2e_seconds histogram`,
		`# HELP ramielfe_exec_seconds Replica-reported execution time of completed requests.`,
		`# TYPE ramielfe_exec_seconds histogram`,
		`# HELP ramielfe_reject_seconds Decision latency of shed requests (the microsecond-rejection contract).`,
		`# TYPE ramielfe_reject_seconds histogram`,
	})
}

// TestFrontMetricsWellFormed validates the front's whole exposition, as
// TestMetricsWellFormed does the server's.
func TestFrontMetricsWellFormed(t *testing.T) {
	front := litFront(t)
	text := scrape(t, front.Handler())
	types, samples := serve.CheckExposition(t, text)
	if len(types) == 0 || samples == 0 {
		t.Fatalf("empty exposition: %d families, %d samples", len(types), samples)
	}
	for _, want := range []string{
		`ramielfe_requests_total{model="squeezenet"} 3`,
		`ramielfe_replica_mem_headroom_bytes{replica="r0"}`,
		`ramielfe_breaker_open{replica="r1"} 0`,
		`ramielfe_e2e_seconds_count{model="squeezenet"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("front /metrics missing %q", want)
		}
	}
	if strings.Contains(text, `ramielfe_replica_mem_headroom_bytes{replica="r1"}`) {
		t.Error("ungoverned replica r1 has a headroom sample")
	}
}

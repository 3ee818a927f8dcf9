package serve

import (
	"io"

	"repro/internal/obs"
)

// writeMetrics renders GET /metrics from the snapshot GET /v1/stats
// serves, collected once per scrape: counters, gauges and the per-model
// stage-latency histograms. Reading is snapshot-priced — the hot path
// never pays for it.
func (s *Server) writeMetrics(w io.Writer) {
	st := s.snapshot()
	p := obs.NewProm(w)
	p.Family("ramield_uptime_seconds", "gauge", "Time since the serving runtime started.", obs.Value(st.UptimeSeconds))
	p.Family("ramield_ready", "gauge", "1 once the preload set has compiled (see /readyz).", obs.Value(st.Ready))
	p.Family("ramield_panics_total", "counter", "Requests failed by a recovered panic; the per-model split is errors_total{cause=\"panic\"}.", obs.Value(st.Panics))

	reg := st.Registry
	p.Family("ramield_compiles_total", "counter", "Model/variant compilations performed.", obs.Value(reg.Compiles))
	p.Family("ramield_compile_cache_hits_total", "counter", "Program cache hits.", obs.Value(reg.CacheHits))
	p.Family("ramield_compile_cache_misses_total", "counter", "Program cache misses.", obs.Value(reg.CacheMisses))
	p.Family("ramield_compile_seconds_total", "counter", "Cumulative time spent compiling.", obs.Value(float64(reg.CompileMicros)/1e6))

	p.Family("ramield_pool_workers", "gauge", "Configured worker count.", obs.Value(st.Pool.Workers))
	p.Family("ramield_pool_queue_depth", "gauge", "Tasks accepted but not yet started.", obs.Value(st.Pool.QueueDepth))
	p.Family("ramield_pool_in_flight", "gauge", "Tasks currently executing.", obs.Value(st.Pool.InFlight))
	p.Family("ramield_pool_peak_in_flight", "gauge", "Highest concurrent execution count observed.", obs.Value(st.Pool.PeakInFlight))

	if a := st.Arena; a.Enabled {
		p.Family("ramield_arena_gets_total", "counter", "Arena buffer requests.", obs.Value(a.Gets))
		p.Family("ramield_arena_hits_total", "counter", "Arena requests served from free lists.", obs.Value(a.Hits))
		p.Family("ramield_arena_misses_total", "counter", "Arena requests that allocated.", obs.Value(a.Misses))
		p.Family("ramield_arena_puts_total", "counter", "Buffers recycled back to arenas.", obs.Value(a.Puts))
		p.Family("ramield_arena_alloc_bytes_total", "counter", "Bytes allocated by arena misses.", obs.Value(a.AllocBytes))
		p.Family("ramield_arena_in_use_bytes", "gauge", "Arena bytes handed out and not yet recycled.", obs.Value(a.InUseBytes))
		p.Family("ramield_arena_peak_bytes", "gauge", "Peak arena bytes in use.", obs.Value(a.PeakBytes))
		p.Family("ramield_arena_held_bytes", "gauge", "Arena bytes parked on free lists.", obs.Value(a.HeldBytes))
	}

	// Resource governance: memory budget/headroom gauges and watchdog
	// counters. Memory sheds ride errors_total{cause="memory"} per model.
	if m := st.Memory; m.Enabled {
		p.Family("ramield_mem_budget_bytes", "gauge", "Configured memory budget for admission and the arena cap.", obs.Value(m.BudgetBytes))
		p.Family("ramield_mem_reserved_bytes", "gauge", "Admission ledger: summed estimates of admitted, unfinished requests.", obs.Value(m.ReservedBytes))
		p.Family("ramield_mem_headroom_bytes", "gauge", "Budget minus in-use minus reserved (the fleet routing signal).", obs.Value(m.HeadroomBytes))
		p.Family("ramield_mem_sheds_total", "counter", "Requests rejected by memory-feasibility admission.", obs.Value(m.Sheds))
		p.Family("ramield_arena_budget_denials_total", "counter", "Arena buffer requests denied by the budget mid-run.", obs.Value(m.ArenaDenials))
		p.Family("ramield_mem_session_drops_total", "counter", "Pooled sessions discarded after a budget denial.", obs.Value(m.SessionDrops))
	}
	if s.dog != nil {
		p.Family("ramield_watchdog_kills_total", "counter", "Runs force-cancelled by the stuck-run watchdog.", obs.Value(st.Memory.WatchdogKills))
		if snap := s.dog.killAge.Snapshot(); snap.Count > 0 {
			p.Family("ramield_watchdog_kill_age_seconds", "histogram", "Age of runs at the moment the watchdog killed them.",
				obs.ByKey("kind", map[string]obs.HistogramSnapshot{"kill": snap}, nil))
		}
	}

	// Per-model families, in sorted model order so the exposition stays
	// diffable.
	byModel := func(v func(ModelStatsSnapshot) any) obs.Series { return obs.ByKey("model", st.Models, v) }
	p.Family("ramield_requests_total", "counter", "Inference requests routed to the model.",
		byModel(func(m ModelStatsSnapshot) any { return m.Requests }))
	p.Family("ramield_batched_requests_total", "counter", "Requests served inside a coalesced batch of size > 1.",
		byModel(func(m ModelStatsSnapshot) any { return m.Batched }))
	p.Family("ramield_batch_flushes_total", "counter", "Micro-batch flushes executed.",
		byModel(func(m ModelStatsSnapshot) any { return m.Flushes }))
	p.Family("ramield_batch_flushed_samples_total", "counter", "Requests carried by all flushes.",
		byModel(func(m ModelStatsSnapshot) any { return m.FlushedSamples }))
	p.Family("ramield_batch_max_seen", "gauge", "Largest coalesced batch executed.",
		byModel(func(m ModelStatsSnapshot) any { return m.MaxBatchSeen }))
	p.Family("ramield_batcher_queue_depth", "gauge", "Requests waiting in the micro-batcher window.",
		byModel(func(m ModelStatsSnapshot) any { return m.QueueDepth }))
	p.Family("ramield_model_in_flight", "gauge", "Requests dispatched for the model and not yet answered (the fleet spillover signal).",
		byModel(func(m ModelStatsSnapshot) any { return m.InFlight }))
	p.Family("ramield_batch_flush_window_ns", "gauge", "Micro-batch flush window last armed for the model (adaptive batching makes this move with load).",
		byModel(func(m ModelStatsSnapshot) any { return m.FlushWindowNs }))
	p.Family("ramield_errors_total", "counter", "Failed requests by cause. Canceled clients carry their own label but are excluded from error-rate SLOs by convention.",
		byModel(func(m ModelStatsSnapshot) any { return obs.ByKey("cause", m.ErrorsByCause, nil) }))
	p.Family("ramield_stage_duration_seconds", "histogram", "Request latency by lifecycle stage (batch_assembly, queue_wait, execute, e2e).",
		byModel(func(m ModelStatsSnapshot) any {
			return obs.ByItem("stage", obs.Stages(), obs.Stage.String, func(stage obs.Stage) any {
				if h, ok := m.Stages[stage.String()]; ok {
					return h
				}
				return nil
			})
		}))

	// Per-op execution totals, merged across each model's batch variants.
	byOp := func(v func(obs.OpTotal) any) obs.Series {
		return obs.ByKey("model", st.Ops, func(tab []obs.OpTotal) any {
			return obs.ByItem("op", tab, func(t obs.OpTotal) string { return t.Op }, v)
		})
	}
	p.Family("ramield_op_invocations_total", "counter", "Kernel invocations by operator type.",
		byOp(func(t obs.OpTotal) any { return t.Count }))
	p.Family("ramield_op_seconds_total", "counter", "Cumulative kernel wall time by operator type.",
		byOp(func(t obs.OpTotal) any { return float64(t.TotalNs) / 1e9 }))
}

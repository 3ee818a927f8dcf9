package fleet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"slices"

	ramiel "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Handler returns the fleet front's HTTP API (what cmd/ramield serves when
// it runs more than one replica):
//
//	POST /v1/infer — serve.InferHandler over the front: the daemon's wire
//	                 format and replies, through routing + admission
//	                 (X-Fleet-Replica reports placement; sheds are 429/503
//	                 with a cause label and Retry-After)
//	GET  /v1/fleet — topology + per-model admission stats (alias /v1/stats)
//	GET  /metrics  — Prometheus text exposition of the fleet families
//	GET  /healthz  — liveness (the front serves HTTP)
//	GET  /readyz   — readiness (not draining, ≥1 replica ready)
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/infer", serve.InferHandler(backend{f}, f.cfg.MaxBodyBytes))
	mux.HandleFunc("/v1/fleet", f.handleFleet)
	mux.HandleFunc("/v1/stats", f.handleFleet)
	mux.Handle("/metrics", obs.MetricsHandler(f.writeMetrics))
	serve.MountHealth(mux, f.Ready)
	return mux
}

// backend is the Front as a serve.Backend: Infer without the RouteInfo,
// whose placement rides on InferMeta.Replica instead.
type backend struct{ *Front }

func (b backend) Infer(ctx context.Context, model string, feeds ramiel.Env, noBatch bool) (ramiel.Env, serve.InferMeta, error) {
	outs, meta, info, err := b.Front.Infer(ctx, model, feeds, noBatch)
	meta.Replica = info.Replica
	return outs, meta, err
}

// RandomFeeds builds seed-mode feeds from the first in-process replica that
// knows the model; when none does, the last one's answer (the daemon's 404)
// stands. A purely remote fleet holds no graph to derive feeds from and
// forwards inputs only.
func (f *Front) RandomFeeds(model string, seed uint64) (ramiel.Env, error) {
	var err error = &serve.Refusal{Status: http.StatusBadRequest,
		Err: errors.New(`seed mode needs an in-process replica (remote fleets take "inputs")`)}
	for _, r := range f.replicas {
		if s, ok := r.(feedSeeder); ok {
			var feeds ramiel.Env
			if feeds, err = s.RandomFeeds(model, seed); err == nil {
				return feeds, nil
			}
		}
	}
	return nil, err
}

func (f *Front) handleFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		serve.WriteJSON(w, http.StatusMethodNotAllowed, serve.ErrorResponse{Error: "GET only"})
		return
	}
	serve.WriteJSON(w, http.StatusOK, f.Snapshot())
}

// writeMetrics renders the fleet-level Prometheus families from one
// Snapshot. Replicas keep the order New got them in and models are sorted,
// so the exposition stays diffable.
func (f *Front) writeMetrics(w io.Writer) {
	snap := f.Snapshot()
	p := obs.NewProm(w)
	p.Family("ramielfe_uptime_seconds", "gauge", "Time since the fleet front started.", obs.Value(snap.UptimeSeconds))
	p.Family("ramielfe_ready", "gauge", "1 while the front is not draining and at least one replica is ready.", obs.Value(snap.Ready))

	byReplica := func(v func(ReplicaSnapshot) any) obs.Series {
		return obs.ByItem("replica", snap.Replicas, func(rs ReplicaSnapshot) string { return rs.Name }, v)
	}
	p.Family("ramielfe_replica_up", "gauge", "1 while the replica is healthy and ready.",
		byReplica(func(rs ReplicaSnapshot) any { return rs.Healthy && rs.Ready }))
	p.Family("ramielfe_replica_queue_depth", "gauge", "Requests queued on the replica (the spillover watermark input).",
		byReplica(func(rs ReplicaSnapshot) any { return rs.Queued }))
	p.Family("ramielfe_replica_in_flight", "gauge", "Requests executing on the replica.",
		byReplica(func(rs ReplicaSnapshot) any { return rs.InFlight }))
	if len(snap.Replicas) > 0 && snap.Replicas[0].Breaker != "" {
		p.Family("ramielfe_breaker_open", "gauge", "1 while the replica's circuit breaker is not closed (open or half-open).",
			byReplica(func(rs ReplicaSnapshot) any { return rs.Breaker != "closed" }))
		p.Family("ramielfe_breaker_opens_total", "counter", "Circuit-breaker trips (closed/half-open to open transitions).",
			byReplica(func(rs ReplicaSnapshot) any { return rs.BreakerOpens }))
	}
	if slices.ContainsFunc(snap.Replicas, func(rs ReplicaSnapshot) bool { return rs.MemGoverned }) {
		p.Family("ramielfe_replica_mem_headroom_bytes", "gauge", "Replica memory headroom (budget − in-use − reserved); routing steers away at 0. Only governed replicas appear.",
			byReplica(func(rs ReplicaSnapshot) any {
				if !rs.MemGoverned {
					return nil
				}
				return rs.MemHeadroomBytes
			}))
	}
	p.Family("ramielfe_retry_budget_tokens", "gauge", "Whole retry-budget tokens currently available fleet-wide.", obs.Value(snap.RetryTokens))

	byModel := func(v func(ModelSnapshot) any) obs.Series { return obs.ByKey("model", snap.Models, v) }
	p.Family("ramielfe_requests_total", "counter", "Requests routed through the front.",
		byModel(func(m ModelSnapshot) any { return m.Requests }))
	p.Family("ramielfe_admitted_total", "counter", "Requests that passed admission and ran.",
		byModel(func(m ModelSnapshot) any { return m.Admitted }))
	p.Family("ramielfe_pending", "gauge", "Admitted requests not yet finished.",
		byModel(func(m ModelSnapshot) any { return m.Pending }))
	p.Family("ramielfe_spills_total", "counter", "Requests routed off their ring owner (watermark or health).",
		byModel(func(m ModelSnapshot) any { return m.Spills }))
	p.Family("ramielfe_replica_errors_total", "counter", "Admitted requests that failed on their replica.",
		byModel(func(m ModelSnapshot) any { return m.Errors }))
	p.Family("ramielfe_retries_total", "counter", "Extra attempts launched after a retryable replica failure.",
		byModel(func(m ModelSnapshot) any { return m.Retries }))
	p.Family("ramielfe_retry_wins_total", "counter", "Requests whose winning response came from a retry attempt.",
		byModel(func(m ModelSnapshot) any { return m.RetryWins }))
	p.Family("ramielfe_hedges_total", "counter", "Hedge attempts launched after HedgeDelay without an answer.",
		byModel(func(m ModelSnapshot) any { return m.Hedges }))
	p.Family("ramielfe_hedge_wins_total", "counter", "Requests whose winning response came from a hedge attempt.",
		byModel(func(m ModelSnapshot) any { return m.HedgeWins }))
	p.Family("ramielfe_retry_budget_exhausted_total", "counter", "Retries or hedges forgone because the fleet-wide budget was empty.",
		byModel(func(m ModelSnapshot) any { return m.BudgetExhausted }))
	p.Family("ramielfe_shed_total", "counter", "Requests rejected by admission, by cause.",
		byModel(func(m ModelSnapshot) any { return obs.ByKey("cause", m.Shed, nil) }))
	p.Family("ramielfe_e2e_seconds", "histogram", "End-to-end latency of admitted requests.",
		byModel(func(m ModelSnapshot) any { return m.E2E }))
	p.Family("ramielfe_exec_seconds", "histogram", "Replica-reported execution time of completed requests.",
		byModel(func(m ModelSnapshot) any { return m.Exec }))
	p.Family("ramielfe_reject_seconds", "histogram", "Decision latency of shed requests (the microsecond-rejection contract).",
		byModel(func(m ModelSnapshot) any { return m.Reject }))
}

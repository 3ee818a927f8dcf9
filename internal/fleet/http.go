package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"

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
	mux.HandleFunc("/metrics", f.handleMetrics)
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

// handleMetrics renders the fleet-level Prometheus families. Replica and
// model order is sorted so the exposition stays diffable.
func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	f.writeMetrics(bw)
}

func (f *Front) writeMetrics(w *bufio.Writer) {
	snap := f.Snapshot()
	obs.PromHeader(w, "ramielfe_uptime_seconds", "gauge", "Time since the fleet front started.")
	fmt.Fprintf(w, "ramielfe_uptime_seconds %s\n", obs.PromFloat(snap.UptimeSeconds))
	obs.PromHeader(w, "ramielfe_ready", "gauge", "1 while the front is not draining and at least one replica is ready.")
	ready := 0
	if snap.Ready {
		ready = 1
	}
	fmt.Fprintf(w, "ramielfe_ready %d\n", ready)

	obs.PromHeader(w, "ramielfe_replica_up", "gauge", "1 while the replica is healthy and ready.")
	for _, rs := range snap.Replicas {
		up := 0
		if rs.Healthy && rs.Ready {
			up = 1
		}
		fmt.Fprintf(w, "ramielfe_replica_up{replica=%s} %d\n", obs.PromLabel(rs.Name), up)
	}
	obs.PromHeader(w, "ramielfe_replica_queue_depth", "gauge", "Requests queued on the replica (the spillover watermark input).")
	for _, rs := range snap.Replicas {
		fmt.Fprintf(w, "ramielfe_replica_queue_depth{replica=%s} %d\n", obs.PromLabel(rs.Name), rs.Queued)
	}
	obs.PromHeader(w, "ramielfe_replica_in_flight", "gauge", "Requests executing on the replica.")
	for _, rs := range snap.Replicas {
		fmt.Fprintf(w, "ramielfe_replica_in_flight{replica=%s} %d\n", obs.PromLabel(rs.Name), rs.InFlight)
	}
	if len(snap.Replicas) > 0 && snap.Replicas[0].Breaker != "" {
		obs.PromHeader(w, "ramielfe_breaker_open", "gauge", "1 while the replica's circuit breaker is not closed (open or half-open).")
		for _, rs := range snap.Replicas {
			open := 0
			if rs.Breaker != "closed" {
				open = 1
			}
			fmt.Fprintf(w, "ramielfe_breaker_open{replica=%s} %d\n", obs.PromLabel(rs.Name), open)
		}
		obs.PromHeader(w, "ramielfe_breaker_opens_total", "counter", "Circuit-breaker trips (closed/half-open to open transitions).")
		for _, rs := range snap.Replicas {
			fmt.Fprintf(w, "ramielfe_breaker_opens_total{replica=%s} %d\n", obs.PromLabel(rs.Name), rs.BreakerOpens)
		}
	}
	if hasMem := func() bool {
		for _, rs := range snap.Replicas {
			if rs.MemGoverned {
				return true
			}
		}
		return false
	}(); hasMem {
		obs.PromHeader(w, "ramielfe_replica_mem_headroom_bytes", "gauge", "Replica memory headroom (budget − in-use − reserved); routing steers away at 0. Only governed replicas appear.")
		for _, rs := range snap.Replicas {
			if rs.MemGoverned {
				fmt.Fprintf(w, "ramielfe_replica_mem_headroom_bytes{replica=%s} %d\n", obs.PromLabel(rs.Name), rs.MemHeadroomBytes)
			}
		}
	}
	obs.PromHeader(w, "ramielfe_retry_budget_tokens", "gauge", "Whole retry-budget tokens currently available fleet-wide.")
	fmt.Fprintf(w, "ramielfe_retry_budget_tokens %d\n", snap.RetryTokens)

	models := make([]string, 0, len(snap.Models))
	for name := range snap.Models {
		models = append(models, name)
	}
	sort.Strings(models)

	writeModelGauge := func(family, kind, help string, get func(ModelSnapshot) int64) {
		obs.PromHeader(w, family, kind, help)
		for _, name := range models {
			fmt.Fprintf(w, "%s{model=%s} %d\n", family, obs.PromLabel(name), get(snap.Models[name]))
		}
	}
	writeModelGauge("ramielfe_requests_total", "counter", "Requests routed through the front.",
		func(m ModelSnapshot) int64 { return m.Requests })
	writeModelGauge("ramielfe_admitted_total", "counter", "Requests that passed admission and ran.",
		func(m ModelSnapshot) int64 { return m.Admitted })
	writeModelGauge("ramielfe_pending", "gauge", "Admitted requests not yet finished.",
		func(m ModelSnapshot) int64 { return m.Pending })
	writeModelGauge("ramielfe_spills_total", "counter", "Requests routed off their ring owner (watermark or health).",
		func(m ModelSnapshot) int64 { return m.Spills })
	writeModelGauge("ramielfe_replica_errors_total", "counter", "Admitted requests that failed on their replica.",
		func(m ModelSnapshot) int64 { return m.Errors })
	writeModelGauge("ramielfe_retries_total", "counter", "Extra attempts launched after a retryable replica failure.",
		func(m ModelSnapshot) int64 { return m.Retries })
	writeModelGauge("ramielfe_retry_wins_total", "counter", "Requests whose winning response came from a retry attempt.",
		func(m ModelSnapshot) int64 { return m.RetryWins })
	writeModelGauge("ramielfe_hedges_total", "counter", "Hedge attempts launched after HedgeDelay without an answer.",
		func(m ModelSnapshot) int64 { return m.Hedges })
	writeModelGauge("ramielfe_hedge_wins_total", "counter", "Requests whose winning response came from a hedge attempt.",
		func(m ModelSnapshot) int64 { return m.HedgeWins })
	writeModelGauge("ramielfe_retry_budget_exhausted_total", "counter", "Retries or hedges forgone because the fleet-wide budget was empty.",
		func(m ModelSnapshot) int64 { return m.BudgetExhausted })

	obs.PromHeader(w, "ramielfe_shed_total", "counter", "Requests rejected by admission, by cause.")
	for _, name := range models {
		m := snap.Models[name]
		causes := make([]string, 0, len(m.Shed))
		for c := range m.Shed {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		for _, c := range causes {
			fmt.Fprintf(w, "ramielfe_shed_total{model=%s,cause=%s} %d\n",
				obs.PromLabel(name), obs.PromLabel(c), m.Shed[c])
		}
	}

	writeModelHist := func(family, help string, get func(ModelSnapshot) *obs.HistogramSnapshot) {
		obs.PromHeader(w, family, "histogram", help)
		for _, name := range models {
			if h := get(snap.Models[name]); h != nil {
				obs.PromHistogram(w, family, fmt.Sprintf("model=%s", obs.PromLabel(name)), *h)
			}
		}
	}
	writeModelHist("ramielfe_e2e_seconds", "End-to-end latency of admitted requests.",
		func(m ModelSnapshot) *obs.HistogramSnapshot { return m.E2E })
	writeModelHist("ramielfe_exec_seconds", "Replica-reported execution time of completed requests.",
		func(m ModelSnapshot) *obs.HistogramSnapshot { return m.Exec })
	writeModelHist("ramielfe_reject_seconds", "Decision latency of shed requests (the microsecond-rejection contract).",
		func(m ModelSnapshot) *obs.HistogramSnapshot { return m.Reject })
}

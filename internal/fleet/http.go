package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	ramiel "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Handler returns the fleet front's HTTP API (what cmd/ramielfe serves):
//
//	POST /v1/infer — run one inference request through routing + admission
//	                 (X-Fleet-Replica reports placement; 429 on shed)
//	GET  /v1/fleet — topology + per-model admission stats (alias /v1/stats)
//	GET  /metrics  — Prometheus text exposition of the fleet families
//	GET  /healthz  — liveness (the front serves HTTP)
//	GET  /readyz   — readiness (not draining, ≥1 replica ready)
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", f.handleInfer)
	mux.HandleFunc("/v1/fleet", f.handleFleet)
	mux.HandleFunc("/v1/stats", f.handleFleet)
	mux.HandleFunc("/metrics", f.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if f.Ready() {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// causeOf labels a fleet error for the response body: shed causes use the
// fleet taxonomy, replica errors keep the daemon's.
func causeOf(err error) string {
	switch {
	case errors.Is(err, ErrInfeasible):
		return ShedInfeasible.String()
	case errors.Is(err, ErrQueueFull):
		return ShedQueueFull.String()
	case errors.Is(err, ErrNoReplica):
		return ShedNoReplica.String()
	}
	var re *ReplicaError
	if errors.As(err, &re) {
		return re.Cause
	}
	return serve.CauseOf(err).String()
}

// statusFor maps fleet errors onto HTTP statuses: sheds that the client
// can relieve (tighter load, looser deadline) are 429, a fleet with no
// ready replica is 503, and replica errors keep their original status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrInfeasible), errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrNoReplica):
		return http.StatusServiceUnavailable
	}
	var re *ReplicaError
	if errors.As(err, &re) {
		return re.Status
	}
	return serve.StatusFor(err)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, serve.ErrorResponse{Error: err.Error(), Cause: causeOf(err)})
}

func (f *Front) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, serve.ErrorResponse{Error: "POST only"})
		return
	}
	req, feeds, rerr := serve.ReadInferRequest(w, r, f.cfg.MaxBodyBytes)
	if rerr != nil {
		writeJSON(w, rerr.Status, rerr.Response())
		return
	}
	if feeds == nil {
		// Seed mode needs a graph to derive feeds from; any in-process
		// replica can supply it. A purely remote fleet forwards inputs
		// only.
		var err error
		feeds, err = f.seedFeeds(req.Model, *req.Seed)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error()})
			return
		}
	}

	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	outs, meta, info, err := f.Infer(ctx, req.Model, feeds, req.NoBatch)
	if info.Replica != "" {
		w.Header().Set("X-Fleet-Replica", info.Replica)
	}
	if meta.RequestID != 0 {
		w.Header().Set("X-Request-ID", strconv.FormatUint(meta.RequestID, 10))
	}
	if err != nil {
		code := statusFor(err)
		if code == http.StatusTooManyRequests {
			// Tell the client when the shed condition should have cleared:
			// the predicted queue wait, rounded up to whole seconds (the
			// header's granularity), minimum 1.
			secs := int(info.PredictedWait/time.Second) + 1
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeError(w, code, err)
		return
	}
	resp := serve.InferResponse{
		Model:       req.Model,
		RequestID:   meta.RequestID,
		Outputs:     make(map[string]serve.TensorJSON, len(outs)),
		BatchSize:   meta.BatchSize,
		LatencyUs:   meta.Latency.Microseconds(),
		BatchWaitUs: meta.BatchWait.Microseconds(),
		QueueWaitUs: meta.QueueWait.Microseconds(),
		ExecUs:      meta.Exec.Microseconds(),
	}
	for name, t := range outs {
		resp.Outputs[name] = serve.TensorJSON{Shape: t.Shape(), Data: t.Data()}
	}
	writeJSON(w, http.StatusOK, resp)
}

// seedFeeds builds deterministic random feeds from the first in-process
// replica that knows the model.
func (f *Front) seedFeeds(model string, seed uint64) (ramiel.Env, error) {
	for _, r := range f.replicas {
		if s, ok := r.(feedSeeder); ok {
			feeds, err := s.RandomFeeds(model, seed)
			if err == nil {
				return feeds, nil
			}
		}
	}
	return nil, fmt.Errorf("seed mode needs an in-process replica holding %q (remote fleets take \"inputs\")", model)
}

func (f *Front) handleFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, serve.ErrorResponse{Error: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, f.Snapshot())
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

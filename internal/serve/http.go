package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	ramiel "repro"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// TensorJSON is the wire form of a dense float32 tensor.
type TensorJSON struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

// toTensor validates and converts the wire form.
func (tj TensorJSON) toTensor() (*ramiel.Tensor, error) {
	shape := ramiel.NewShape(tj.Shape...)
	if !shape.Valid() {
		return nil, fmt.Errorf("invalid shape %v", tj.Shape)
	}
	if shape.Numel() != len(tj.Data) {
		return nil, fmt.Errorf("shape %v wants %d values, got %d", tj.Shape, shape.Numel(), len(tj.Data))
	}
	return ramiel.NewTensor(shape, tj.Data), nil
}

func fromTensor(t *ramiel.Tensor) TensorJSON {
	return TensorJSON{Shape: t.Shape(), Data: t.Data()}
}

// InferRequest is the body of POST /v1/infer. Either Inputs carries the
// full feed, or Seed asks the server to generate deterministic random
// inputs (handy for curl smoke tests).
type InferRequest struct {
	Model     string                `json:"model"`
	Inputs    map[string]TensorJSON `json:"inputs,omitempty"`
	Seed      *uint64               `json:"seed,omitempty"`
	NoBatch   bool                  `json:"no_batch,omitempty"`
	TimeoutMs int                   `json:"timeout_ms,omitempty"`
}

// InferResponse is the body of a successful /v1/infer.
type InferResponse struct {
	Model     string                `json:"model"`
	RequestID uint64                `json:"request_id"`
	Outputs   map[string]TensorJSON `json:"outputs"`
	BatchSize int                   `json:"batch_size"`
	LatencyUs int64                 `json:"latency_us"`
	// Stage breakdown of LatencyUs (see the stage histograms in /v1/stats):
	// micro-batch assembly wait, pool queue wait, and session execution.
	BatchWaitUs int64 `json:"batch_wait_us"`
	QueueWaitUs int64 `json:"queue_wait_us"`
	ExecUs      int64 `json:"exec_us"`
}

// modelInfo is one entry of GET /v1/models.
type modelInfo struct {
	Name           string             `json:"name"`
	Inputs         []valueInfoJSON    `json:"inputs"`
	Outputs        []valueInfoJSON    `json:"outputs"`
	Nodes          int                `json:"nodes"`
	CachedBatches  []int              `json:"cached_batches,omitempty"`
	Stats          ModelStatsSnapshot `json:"stats"`
	ClustersBatch1 int                `json:"clusters_batch1,omitempty"`
}

type valueInfoJSON struct {
	Name  string `json:"name"`
	Shape []int  `json:"shape,omitempty"`
}

// statsResponse is the body of GET /v1/stats, and what GET /metrics
// renders.
type statsResponse struct {
	UptimeSeconds float64                       `json:"uptime_seconds"`
	Ready         bool                          `json:"ready"`
	Panics        int64                         `json:"panics_total"`
	Registry      RegistryStatsSnapshot         `json:"registry"`
	Pool          poolStatsJSON                 `json:"pool"`
	Arena         arenaStatsJSON                `json:"arena"`
	Runtime       runtimeStatsJSON              `json:"runtime"`
	Models        map[string]ModelStatsSnapshot `json:"models"`
	// Memory is the resource-governance view: budget, reservation ledger,
	// headroom, shed/kill counters. Enabled=false when no budget is set;
	// the fleet tier's stats probe reads HeadroomBytes for routing.
	Memory MemoryStatsSnapshot `json:"memory"`
	// Ops is the per-model, per-op-type execution time table, merged across
	// the model's compiled batch variants — where model time actually goes.
	// Only models with a ready compiled program appear.
	Ops map[string][]obs.OpTotal `json:"ops,omitempty"`
	// MaxOutputValues is the most output values one reply is known to
	// carry: the larger of the largest reply served so far and the largest
	// total of a built model's declared output shapes (models not built
	// yet do not count). A fleet front sizes its cap on this replica's
	// replies from it.
	MaxOutputValues int64 `json:"max_output_values"`
}

type poolStatsJSON struct {
	Workers      int   `json:"workers"`
	QueueDepth   int64 `json:"queue_depth"`
	InFlight     int64 `json:"in_flight"`
	PeakInFlight int64 `json:"peak_in_flight"`
}

// arenaStatsJSON aggregates every worker arena's counters. Enabled is
// always true: every run executes on a session arena.
type arenaStatsJSON struct {
	Enabled bool `json:"enabled"`
	tensor.ArenaStatsSnapshot
}

// runtimeStatsJSON surfaces the Go runtime's memory counters next to the
// serving stats, so arena wins (flat heap, fewer GCs) are observable from
// the API alone. Values come from runtime/metrics, which reads without
// stopping the world — a monitoring system may poll /v1/stats tightly
// without pausing in-flight inference (runtime.ReadMemStats would STW).
type runtimeStatsJSON struct {
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	SysBytes        uint64 `json:"sys_bytes"`
	Mallocs         uint64 `json:"mallocs"`
	Frees           uint64 `json:"frees"`
	NumGC           uint64 `json:"num_gc"`
	MaxGCPauseNs    uint64 `json:"max_gc_pause_ns"`
	Goroutines      int    `json:"goroutines"`
}

// runtimeMetricNames is the fixed sample set read per stats request.
var runtimeMetricNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/allocs:bytes",
	"/memory/classes/total:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/frees:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntimeStats() runtimeStatsJSON {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	u64 := func(i int) uint64 {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	// Largest observed stop-the-world GC pause: the upper bound of the
	// highest non-empty histogram bucket.
	var maxPause uint64
	if samples[6].Value.Kind() == metrics.KindFloat64Histogram {
		h := samples[6].Value.Float64Histogram()
		for i := len(h.Counts) - 1; i >= 0; i-- {
			if h.Counts[i] == 0 {
				continue
			}
			bound := h.Buckets[i+1]
			if math.IsInf(bound, 1) {
				bound = h.Buckets[i]
			}
			maxPause = uint64(bound * 1e9)
			break
		}
	}
	return runtimeStatsJSON{
		HeapAllocBytes:  u64(0),
		TotalAllocBytes: u64(1),
		SysBytes:        u64(2),
		Mallocs:         u64(3),
		Frees:           u64(4),
		NumGC:           u64(5),
		MaxGCPauseNs:    maxPause,
		Goroutines:      runtime.NumGoroutine(),
	}
}

type ErrorResponse struct {
	Error string `json:"error"`
	// Cause is the classification label also used by the errors_by_cause
	// counters and trace spans (validation, compile, execution, deadline,
	// canceled, shutdown, memory, queue_full, ...). Empty for errors outside
	// the serving taxonomy.
	Cause string `json:"cause,omitempty"`
}

// Refusal is a request turned away with its reply already decided: a body
// that failed to read or decode, a shed by memory or fleet admission, a
// fleet with no replica to route to, a remote replica's own error reply.
// Err is the reason — for sheds the sentinel (ErrMemoryPressure,
// fleet.ErrQueueFull, ...), so errors.Is keeps working through the wrapper.
type Refusal struct {
	Status int
	// Cause is the reply's cause label ("" outside the taxonomy). A label,
	// not an ErrorCause: a remote daemon's cause passes through unchanged.
	Cause string
	// RetryAfter, when > 0, is when the condition that shed the request
	// should have cleared (see DrainWait); it becomes the Retry-After header.
	RetryAfter time.Duration
	Err        error
}

func (e *Refusal) Error() string { return e.Err.Error() }
func (e *Refusal) Unwrap() error { return e.Err }

// DrainWait is the one estimate behind every Retry-After: a backlog of
// requests drains at one median execution per worker. Zero while the model
// has no samples; sheds floor it at the header's one-second granularity.
func DrainWait(backlog int64, p50 time.Duration, workers int) time.Duration {
	return time.Duration(backlog) * p50 / time.Duration(max(workers, 1))
}

// ReplyFor is the one mapping from a failed request to its HTTP reply:
// status, cause label, and the Retry-After wait (0 = no header). A Refusal
// carries its own; every other error — whatever a run, the pool or the
// registry returned — is classified by cause, and the cause fixes the
// status.
func ReplyFor(err error) (status int, cause string, retryAfter time.Duration) {
	var r *Refusal
	switch {
	case errors.As(err, &r):
		return r.Status, r.Cause, r.RetryAfter
	case errors.Is(err, ErrNotRegistered):
		// Not a failure of any model: no cause label, no per-model counter.
		return http.StatusNotFound, "", 0
	}
	c := causeOf(err)
	switch c {
	case CauseValidation:
		status = http.StatusBadRequest
	case CauseCanceled:
		// Client went away; 499 is the de-facto status for that (nginx).
		status = 499
	case CauseDeadline, CauseWatchdog:
		// A watchdog kill reads as a server-side timeout.
		status = http.StatusGatewayTimeout
	case CauseShutdown, CauseMemory:
		// Memory here is the arena budget denying a run mid-flight —
		// overload; an admission shed arrives as a 429 Refusal instead.
		status = http.StatusServiceUnavailable
	default:
		status = http.StatusInternalServerError
	}
	return status, c.String(), 0
}

// Backend is what POST /v1/infer dispatches to: one serving runtime
// (*Server) or a fleet of them (fleet.Front).
type Backend interface {
	// Infer runs one request; InferMeta.Replica reports placement when the
	// backend has more than one place to run it.
	Infer(ctx context.Context, model string, feeds ramiel.Env, noBatch bool) (ramiel.Env, InferMeta, error)
	// RandomFeeds builds the deterministic feeds of seed mode.
	RandomFeeds(model string, seed uint64) (ramiel.Env, error)
}

// InferHandler is the POST /v1/infer handler, the only one: read and decode
// the body (at most maxBody bytes), derive feeds in seed mode, apply
// timeout_ms, dispatch to b, and answer with the outputs or with ReplyFor's
// verdict on the error. X-Request-ID echoes the request's span id,
// X-Fleet-Replica its placement.
func InferHandler(b Backend, maxBody int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
			return
		}
		req, feeds, err := ReadInferRequest(w, r, maxBody)
		if err == nil && feeds == nil {
			feeds, err = b.RandomFeeds(req.Model, *req.Seed)
		}
		var outs ramiel.Env
		var meta InferMeta
		if err == nil {
			ctx := r.Context()
			if req.TimeoutMs > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
				defer cancel()
			}
			outs, meta, err = b.Infer(ctx, req.Model, feeds, req.NoBatch)
		}
		if meta.Replica != "" {
			w.Header().Set("X-Fleet-Replica", meta.Replica)
		}
		if meta.RequestID != 0 {
			w.Header().Set("X-Request-ID", strconv.FormatUint(meta.RequestID, 10))
		}
		if err != nil {
			status, cause, retryAfter := ReplyFor(err)
			if retryAfter > 0 {
				// Whole seconds, the header's granularity, rounded up.
				w.Header().Set("Retry-After", strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
			}
			WriteJSON(w, status, ErrorResponse{Error: err.Error(), Cause: cause})
			return
		}
		resp := InferResponse{
			Model:       req.Model,
			RequestID:   meta.RequestID,
			Outputs:     make(map[string]TensorJSON, len(outs)),
			BatchSize:   meta.BatchSize,
			LatencyUs:   meta.Latency.Microseconds(),
			BatchWaitUs: meta.BatchWait.Microseconds(),
			QueueWaitUs: meta.QueueWait.Microseconds(),
			ExecUs:      meta.Exec.Microseconds(),
		}
		for name, t := range outs {
			resp.Outputs[name] = fromTensor(t)
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// Handler returns the HTTP API:
//
//	GET  /v1/models   — registered models, signatures, cache + stats
//	POST /v1/infer    — run one inference request (InferHandler)
//	GET  /v1/stats    — registry/pool/per-model counters, histograms, op time
//	GET  /v1/trace    — recent request spans (?n= limits, ?slow=1 for the slow ring)
//	GET  /v1/timeline — latest sampled run timeline of ?model= (&batch=, default 1)
//	                    as Chrome trace-event JSON; needs Config.TimelineEvery > 0
//	GET  /metrics     — Prometheus text exposition
//	GET  /healthz     — liveness
//	GET  /readyz      — readiness (preload set compiled)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.Handle("/v1/infer", InferHandler(s, s.cfg.MaxBodyBytes))
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/trace", s.handleTrace)
	mux.HandleFunc("/v1/timeline", s.handleTimeline)
	mux.Handle("/metrics", obs.MetricsHandler(s.writeMetrics))
	MountHealth(mux, s.Ready)
	return mux
}

// MountHealth mounts GET /healthz (liveness: the process serves HTTP) and
// GET /readyz (200 while ready() holds, 503 otherwise — before the preload
// set has compiled, and again once draining).
func MountHealth(mux *http.ServeMux, ready func() bool) {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if ready() {
			WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
	})
}

// WriteJSON answers with v as a JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, ErrorResponse{Error: err.Error()})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	var infos []modelInfo
	for _, name := range s.reg.Models() {
		info := modelInfo{Name: name, Stats: s.modelStats(name).Snapshot()}
		// Peek, don't build: signatures appear once the model is warmed or
		// first served; a monitoring GET must not trigger graph builds.
		if g := s.reg.PeekGraph(name); g != nil {
			info.Nodes = len(g.Nodes)
			for _, in := range g.Inputs {
				info.Inputs = append(info.Inputs, valueInfoJSON{in.Name, in.Shape})
			}
			for _, out := range g.Outputs {
				info.Outputs = append(info.Outputs, valueInfoJSON{out.Name, out.Shape})
			}
		}
		info.CachedBatches = s.reg.CachedBatches(name)
		// Peek, don't Program: a monitoring GET must not compile anything
		// or skew the cache-hit counters.
		if prog := s.reg.Peek(name, 1); prog != nil {
			info.ClustersBatch1 = prog.NumClusters()
		}
		infos = append(infos, info)
	}
	WriteJSON(w, http.StatusOK, map[string]any{"models": infos})
}

// handleTrace serves GET /v1/trace: the most recent request spans, newest
// first. ?n= caps the count; ?slow=1 reads the slow-request ring (spans at
// or above Config.SlowThreshold) instead of the recent ring.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", v))
			return
		}
		n = parsed
	}
	slow := r.URL.Query().Get("slow") == "1"
	var spans []obs.Span
	if slow {
		spans = s.SlowTraces(n)
	} else {
		spans = s.Traces(n)
	}
	if spans == nil {
		spans = []obs.Span{}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"slow":  slow,
		"spans": spans,
	})
}

// handleTimeline serves GET /v1/timeline: the latest sampled execution
// timeline of ?model= (and optional &batch=, default 1) rendered as Chrome
// trace-event JSON — load the response body in Perfetto (ui.perfetto.dev)
// or chrome://tracing to see lanes as threads, kernels as slices, and
// cross-lane transfers as flow arrows. 501 when the server runs without the
// flight recorder (Config.TimelineEvery == 0), 404 while the variant is
// uncompiled or no run has been sampled yet.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	if s.cfg.TimelineEvery < 1 {
		writeError(w, http.StatusNotImplemented,
			errors.New("timeline recording disabled (start the server with TimelineEvery > 0)"))
		return
	}
	model := r.URL.Query().Get("model")
	if model == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing \"model\""))
		return
	}
	batch := 1
	if v := r.URL.Query().Get("batch"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid batch %q", v))
			return
		}
		batch = parsed
	}
	// Peek, don't Program: a monitoring GET must not compile anything or
	// skew the cache counters (same policy as /v1/models and /v1/stats).
	prog := s.reg.Peek(model, batch)
	if prog == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no compiled batch-%d program for %q (not registered, not yet compiled, or failed)", batch, model))
		return
	}
	tl := prog.LastTimeline()
	if tl == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no sampled run yet for %q batch %d (sampling 1 in %d)", model, batch, s.cfg.TimelineEvery))
		return
	}
	process := model
	if batch > 1 {
		process = fmt.Sprintf("%s (batch %d)", model, batch)
	}
	body, err := tl.ChromeTrace(process)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	WriteJSON(w, http.StatusOK, s.snapshot())
}

// snapshot collects the one view of the server that GET /v1/stats
// serializes and GET /metrics renders.
func (s *Server) snapshot() statsResponse {
	s.mu.Lock()
	models := make(map[string]ModelStatsSnapshot, len(s.stats))
	for name, st := range s.stats {
		models[name] = st.Snapshot()
	}
	s.mu.Unlock()
	return statsResponse{
		UptimeSeconds: s.Uptime().Seconds(),
		Ready:         s.Ready(),
		Panics:        s.Panics(),
		Registry:      s.reg.Stats(),
		Pool: poolStatsJSON{
			Workers:      s.cfg.Workers,
			QueueDepth:   s.pool.QueueDepth(),
			InFlight:     s.pool.InFlight(),
			PeakInFlight: s.pool.PeakInFlight(),
		},
		Arena:   arenaStatsJSON{Enabled: true, ArenaStatsSnapshot: s.ArenaStats()},
		Memory:  s.MemoryStats(),
		Runtime: readRuntimeStats(),
		Models:  models,
		Ops:     s.opTotals(),

		MaxOutputValues: s.maxOutputValues(),
	}
}

// maxOutputValues is the largest reply served so far, or the largest
// total of one built model's declared output shapes if that is larger.
// Peek-only, like /v1/models: a stats probe must not trigger graph builds.
func (s *Server) maxOutputValues() int64 {
	n := s.maxReply.Load()
	for _, name := range s.reg.Models() {
		if g := s.reg.PeekGraph(name); g != nil {
			values := int64(0)
			for _, out := range g.Outputs {
				values += int64(out.Shape.Numel())
			}
			n = max(n, values)
		}
	}
	return n
}

// opTotals builds the per-model op-time tables for stats and metrics by
// peeking every ready compiled variant (never compiling — a monitoring GET
// must not trigger builds or skew cache counters) and merging the variants'
// tables. Models with no executed ops yet are omitted.
func (s *Server) opTotals() map[string][]obs.OpTotal {
	var out map[string][]obs.OpTotal
	for _, name := range s.reg.Models() {
		var tables [][]obs.OpTotal
		for _, batch := range s.reg.CachedBatches(name) {
			if prog := s.reg.Peek(name, batch); prog != nil {
				tables = append(tables, prog.OpTotals())
			}
		}
		if merged := obs.MergeOpTotals(tables...); merged != nil {
			if out == nil {
				out = map[string][]obs.OpTotal{}
			}
			out[name] = merged
		}
	}
	return out
}

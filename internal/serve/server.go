package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	ramiel "repro"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Config tunes the serving runtime. Zero values pick sensible defaults.
type Config struct {
	// Workers is the number of concurrent plan executions (default
	// GOMAXPROCS). Each running plan itself fans out one goroutine per
	// cluster, so this bounds total execution parallelism.
	Workers int
	// MaxBatch caps dynamic micro-batching; 1 disables coalescing.
	MaxBatch int
	// FlushTimeout is how long a lone request waits for batch companions
	// (default 2ms — small against model latency, large against arrival
	// gaps under load). With AdaptiveBatch set it becomes the window cap.
	FlushTimeout time.Duration
	// AdaptiveBatch replaces the static flush-timeout policy with a
	// per-model controller that picks each window from live measurements:
	// the wait budget tracks the model's p50 execution time (from the
	// stage histograms) and the expected window-fill time comes from an
	// EWMA of arrival gaps — flush almost immediately when arrivals are
	// sparse, grow batches toward MaxBatch under load. minFlush and
	// FlushTimeout bound the chosen window; the static policy remains the
	// manual fallback when this is off.
	AdaptiveBatch bool
	// ModelTuning overrides MaxBatch/FlushTimeout for individual models;
	// zero fields inherit the global values. Models absent from the map
	// use the globals.
	ModelTuning map[string]BatchTuning
	// Switched selects switched hyperclustering for batch plans (Fig. 9).
	Switched bool
	// Deadline is the default per-request deadline (default 30s).
	Deadline time.Duration
	// NoArena disables arena-backed execution; the default (false) pools
	// warm ramiel.Sessions per program, each owning a tensor arena recycled
	// across requests, so steady-state inference performs no per-request
	// intermediate-tensor allocation.
	NoArena bool
	// NoObs disables serve-layer telemetry: per-model stage-latency
	// histograms and request tracing are simply never allocated (the record
	// paths are nil-safe no-ops). Counters stay on — they are single atomic
	// adds. Default false: telemetry is always on, and designed to be cheap
	// enough to leave on (zero allocations per request).
	NoObs bool
	// SlowThreshold routes requests at or above this end-to-end latency
	// into the dedicated slow-trace ring, so rare tail-latency offenders
	// survive the churn of the recent ring. Default 100ms.
	SlowThreshold time.Duration
	// TimelineEvery enables the execution-timeline flight recorder on every
	// compiled program: one run in TimelineEvery is sampled into per-op
	// spans, exportable as Chrome trace-event JSON at GET /v1/timeline.
	// Default 0 = off — unlike the request-level telemetry above, sampled
	// runs allocate their span storage, so the recorder is opt-in and the
	// serving hot path keeps its zero-allocation contract by default. Each
	// program retains its timelineRing most recent sampled runs.
	TimelineEvery int
	// MemBudgetBytes, when > 0, turns on memory governance: (1) requests
	// are admitted only while the projected working set — arena in-use
	// bytes plus the memory-plan estimates of admitted-but-unfinished
	// requests — fits the budget, others shed in microseconds with cause
	// "memory" (HTTP 429 + Retry-After); (2) the same budget caps the
	// shared session arenas, so a run that outgrows its estimate fails
	// with tensor.ErrArenaBudget instead of growing the heap unbounded.
	// 0 (the default) disables governance; daemons default it to
	// DetectMemoryBudget. The admit/release path allocates nothing.
	MemBudgetBytes int64
	// WatchdogFactor scales the stuck-run watchdog's kill limit:
	// factor × the model's live p99 execution time, floored at
	// WatchdogFloor. 0 picks the default (20); negative disables the
	// watchdog entirely.
	WatchdogFactor float64
	// WatchdogFloor is the minimum age before any run can be killed
	// (default 2s) — also the whole limit while a model has no latency
	// samples yet.
	WatchdogFloor time.Duration
	// MaxBodyBytes caps HTTP /v1/infer request bodies (413 past it).
	// 0 picks the default (8 MiB); negative disables the cap.
	MaxBodyBytes int64
	// NoFiniteCheck skips the NaN/±Inf feed scan (on by default: poisoned
	// inputs fail as validation errors instead of propagating through the
	// fused kernels).
	NoFiniteCheck bool
	// Compile sets the Ramiel pipeline options used for every model.
	Compile ramiel.Options
}

const (
	// minFlush is the adaptive batching controller's window floor.
	minFlush = 50 * time.Microsecond
	// timelineRing is how many sampled run timelines each program retains.
	timelineRing = 4
	// backlogPerWorker sizes the worker-pool queue: this many waiting
	// tasks per worker.
	backlogPerWorker = 4
	// traceDepth is the capacity of each request-trace ring (recent and
	// slow).
	traceDepth = 256
)

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 1
	}
	if c.FlushTimeout <= 0 {
		c.FlushTimeout = 2 * time.Millisecond
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 100 * time.Millisecond
	}
	if c.WatchdogFactor == 0 {
		c.WatchdogFactor = 20
	}
	if c.WatchdogFloor <= 0 {
		c.WatchdogFloor = 2 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// BatchTuning is a per-model override of the micro-batching knobs (see
// Config.ModelTuning). Zero fields inherit the global Config values.
type BatchTuning struct {
	MaxBatch     int
	FlushTimeout time.Duration
}

// tuning resolves the effective micro-batching knobs for a model.
func (c Config) tuning(model string) (maxBatch int, flush time.Duration) {
	maxBatch, flush = c.MaxBatch, c.FlushTimeout
	if t, ok := c.ModelTuning[model]; ok {
		if t.MaxBatch > 0 {
			maxBatch = t.MaxBatch
		}
		if t.FlushTimeout > 0 {
			flush = t.FlushTimeout
		}
	}
	return maxBatch, flush
}

// stageTimes carries a request's per-stage wall time out of dispatch. It is
// passed by value — no allocation on the serving hot path. ran is false
// when the request never reached a pool worker (its exec time would be
// meaningless, so exec-stage histograms skip it).
type stageTimes struct {
	assembly time.Duration // micro-batch window wait (batched path only)
	queue    time.Duration // pool wait: enqueue → worker pickup
	exec     time.Duration // session run on the worker
	ran      bool
}

// InferMeta reports how a request was served.
type InferMeta struct {
	// RequestID is the server-assigned sequence number of the request,
	// echoed as X-Request-ID by the HTTP layer and keying its trace span.
	RequestID uint64
	// BatchSize is the coalesced batch the request rode in (1 = solo).
	BatchSize int
	// Latency is the end-to-end service time.
	Latency time.Duration
	// BatchWait is the time spent waiting for micro-batch companions
	// (zero on the unbatched path).
	BatchWait time.Duration
	// QueueWait is the time spent queued for a pool worker.
	QueueWait time.Duration
	// Exec is the session-run time on the worker (shared by all members of
	// a coalesced batch).
	Exec time.Duration
	// Replica names where a multi-replica backend (the fleet front) ran the
	// request, echoed as X-Fleet-Replica; empty from a single server.
	Replica string
}

// Server is the serving runtime: registry + pool + per-model batchers.
// All methods are safe for concurrent use.
type Server struct {
	cfg      Config
	reg      *Registry
	pool     *Pool
	sessions *sessionSource // pooled per-program execution sessions
	gov      *memGovernor   // memory-feasibility admission (nil = off)
	dog      *watchdog      // stuck-run watchdog (nil = off)

	mu       sync.Mutex
	batchers map[string]*batcher
	stats    map[string]*ModelStats
	closed   bool

	// obs gates serve-layer telemetry (stage histograms + trace rings);
	// when false, traces/slow are nil and ModelStats.stages stays nil —
	// all record paths are nil-safe no-ops.
	obs    bool
	traces *obs.TraceRing // most recent requests
	slow   *obs.TraceRing // requests at or above cfg.SlowThreshold
	reqID  atomic.Uint64  // request ID sequence
	ready  atomic.Bool    // flipped by Warm/MarkReady; read by /readyz

	// panics counts requests failed by a recovered panic (a panicking
	// batch run counts every member it failed, mirroring errors_total).
	// The per-model split lives in errors_by_cause under "panic".
	panics atomic.Int64
	// maxReply is the most output values one successful reply has carried,
	// for the stats' max_output_values.
	maxReply atomic.Int64

	start time.Time
}

// New creates a serving runtime and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := NewRegistry(cfg.Compile, cfg.Switched)
	if cfg.TimelineEvery > 0 {
		reg.EnableTimeline(cfg.TimelineEvery, timelineRing)
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		pool:     NewPool(cfg.Workers, backlogPerWorker*cfg.Workers),
		sessions: newSessionSource(!cfg.NoArena),
		batchers: map[string]*batcher{},
		stats:    map[string]*ModelStats{},
		obs:      !cfg.NoObs,
		start:    time.Now(),
	}
	if s.obs {
		s.traces = obs.NewTraceRing(traceDepth)
		s.slow = obs.NewTraceRing(traceDepth)
	}
	if cfg.MemBudgetBytes > 0 {
		var arena *tensor.ArenaStats
		if !cfg.NoArena {
			// One budget governs both layers: admission projects against
			// it up front, and the shared arena enforces it mid-run as the
			// backstop for runs that outgrow their estimate.
			arena = &s.sessions.stats
			arena.SetBudget(cfg.MemBudgetBytes)
		}
		s.gov = newMemGovernor(cfg.MemBudgetBytes, arena)
	}
	if cfg.WatchdogFactor > 0 {
		s.dog = newWatchdog(cfg.Workers, cfg.WatchdogFactor, cfg.WatchdogFloor, s.obs)
	}
	return s
}

// ArenaStats reads the aggregate arena counters across all pooled session
// arenas; ok is false when the arena is disabled.
func (s *Server) ArenaStats() (snap tensor.ArenaStatsSnapshot, ok bool) {
	return s.sessions.snapshot()
}

// Registry exposes the server's model registry for registration and
// inspection.
func (s *Server) Registry() *Registry { return s.reg }

// RegisterZoo registers built-in zoo models (all of them when names is
// empty).
func (s *Server) RegisterZoo(cfg ramiel.ModelConfig, names ...string) error {
	return s.reg.RegisterZoo(cfg, names...)
}

// RegisterGraph registers an already-built model graph.
func (s *Server) RegisterGraph(name string, g *ramiel.Graph) {
	s.reg.RegisterGraph(name, g)
}

// Warm precompiles the batch-1 program for each named model (all
// registered models when names is empty), so first requests don't pay the
// compile. On success the server reports ready (see Ready); deployments
// that skip warming should call MarkReady explicitly.
func (s *Server) Warm(names ...string) error {
	if len(names) == 0 {
		names = s.reg.Models()
	}
	for _, name := range names {
		if _, err := s.reg.Program(name, 1); err != nil {
			return err
		}
	}
	s.MarkReady()
	return nil
}

// MarkReady flips the readiness gate (see Ready). Warm calls it on success;
// deployments that serve without preloading call it directly.
func (s *Server) MarkReady() { s.ready.Store(true) }

// Ready reports whether the server has finished preloading (Warm succeeded
// or MarkReady was called). Distinct from liveness: a live server that is
// still compiling its preload set is not yet ready for traffic.
func (s *Server) Ready() bool { return s.ready.Load() }

// BeginDrain flips readiness off without rejecting anything: /readyz turns
// 503 so fleet routing and load balancers rotate traffic away, while
// in-flight and still-arriving requests keep being served. Call it before
// closing the listener; Close then finishes the shutdown. Idempotent.
func (s *Server) BeginDrain() { s.ready.Store(false) }

// Load reports the server's current queueing pressure: requests accepted
// but not yet picked up (worker-pool backlog plus every model's
// micro-batcher window) and requests currently executing. This is the
// signal the fleet tier's spillover watermark and admission controller
// read.
func (s *Server) Load() (queued, inflight int64) {
	queued = s.pool.QueueDepth()
	inflight = s.pool.InFlight()
	s.mu.Lock()
	for _, st := range s.stats {
		queued += st.QueueDepth.Load()
	}
	s.mu.Unlock()
	return queued, inflight
}

// Workers reports the configured worker-pool size — the fleet admission
// controller's service-rate denominator.
func (s *Server) Workers() int { return s.cfg.Workers }

// Traces returns up to n most-recent request spans, newest first (n <= 0
// means all retained). Nil when telemetry is disabled.
func (s *Server) Traces(n int) []obs.Span { return s.traces.Snapshot(n) }

// SlowTraces returns up to n retained slow-request spans (end-to-end
// latency >= Config.SlowThreshold), newest first. Nil when telemetry is
// disabled.
func (s *Server) SlowTraces(n int) []obs.Span { return s.slow.Snapshot(n) }

// statsLocked returns (creating on demand) the stats block for a model.
// Caller holds s.mu.
func (s *Server) statsLocked(model string) *ModelStats {
	st, ok := s.stats[model]
	if !ok {
		st = &ModelStats{}
		if s.obs {
			st.stages = &obs.StageSet{}
		}
		s.stats[model] = st
	}
	return st
}

// modelStats is statsLocked with its own locking.
func (s *Server) modelStats(model string) *ModelStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked(model)
}

// batcher returns (creating on demand) the micro-batcher for a model, or
// nil when the server is closed.
func (s *Server) batcher(model string) *batcher {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	b, ok := s.batchers[model]
	if !ok {
		maxBatch, flush := s.cfg.tuning(model)
		st := s.statsLocked(model)
		var adapt *batchAdapter
		if s.cfg.AdaptiveBatch {
			// The controller reads the model's live exec-time histogram;
			// with telemetry off the histogram is nil and the controller
			// falls back to arrival-rate-only decisions.
			adapt = newBatchAdapter(st.stages.Stage(obs.StageExec), minFlush, flush, maxBatch)
		}
		b = newBatcher(model, s.reg, s.pool, s.sessions, maxBatch, flush, s.cfg.Deadline, st, adapt, s.dog)
		s.batchers[model] = b
	}
	return b
}

// Infer serves one single-sample request: feeds keyed by the model's
// declared input names. When batching is enabled (MaxBatch > 1) and
// noBatch is false, the request may be coalesced with concurrent ones into
// a hyperclustered batch run. ctx bounds the wait and, on the unbatched
// path, propagates into the run itself: a cancelled or timed-out request
// aborts its in-flight session run instead of computing to completion.
// With no deadline set, the server default applies.
//
// Every refusal is decided here, in order, so each caller — HTTP, a fleet
// replica, a benchmark — gets the same answer: unknown model, feeds that do
// not match the model's signature or carry NaN/Inf (before the request can
// reserve memory or join a micro-batch, so a bad request fails alone), then
// memory admission.
func (s *Server) Infer(ctx context.Context, model string, feeds ramiel.Env, noBatch bool) (ramiel.Env, InferMeta, error) {
	start := time.Now()
	// Reject unknown models before touching per-model state: junk traffic
	// must not grow the stats map. A graph that fails to build is the
	// model's failure and is counted below.
	g, err := s.reg.Graph(model)
	if errors.Is(err, ErrNotRegistered) {
		return nil, InferMeta{}, err
	}
	id := s.reqID.Add(1)
	st := s.modelStats(model)
	st.Requests.Add(1)
	st.InFlight.Add(1)
	defer st.InFlight.Add(-1)
	var cancel context.CancelFunc
	if _, ok := ctx.Deadline(); !ok {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Deadline)
		defer cancel()
	} else if s.dog != nil {
		// The watchdog kills by cancelling. A client-supplied deadline
		// means no server-side cancel exists yet, so add one — off the
		// default (no-deadline) path, which keeps its allocation profile.
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}

	var (
		outs      ramiel.Env
		batchSize int
		ts        stageTimes
	)
	if err == nil {
		err = ramiel.ValidateFeeds(g, feeds)
	}
	if err == nil && !s.cfg.NoFiniteCheck {
		err = ramiel.CheckFiniteFeeds(feeds)
	}
	if err == nil {
		// Memory-feasibility admission: shed in microseconds when the
		// projected working set exceeds the budget, instead of queueing
		// work the arena will refuse anyway.
		if reserved, admitted := s.gov.admit(s, model); admitted {
			outs, batchSize, ts, err = s.dispatch(ctx, cancel, model, st, id, feeds, noBatch)
			s.gov.release(reserved)
		} else {
			err = s.memoryShed(model, st)
		}
	}
	total := time.Since(start)
	meta := InferMeta{
		RequestID: id,
		BatchSize: batchSize,
		Latency:   total,
		BatchWait: ts.assembly,
		QueueWait: ts.queue,
		Exec:      ts.exec,
	}
	cause := causeOf(err)
	st.noteError(cause)
	if cause == CausePanic {
		s.notePanic(model, err)
	}
	s.record(st, model, meta, ts, start, cause, err)
	if err != nil {
		return nil, meta, err
	}
	s.noteReply(outs)
	return outs, meta, nil
}

// noteReply raises maxReply to the output values of one successful reply.
func (s *Server) noteReply(outs ramiel.Env) {
	values := int64(0)
	for _, t := range outs {
		values += int64(t.Numel())
	}
	for {
		old := s.maxReply.Load()
		if values <= old || s.maxReply.CompareAndSwap(old, values) {
			return
		}
	}
}

// notePanic accounts one panic-failed request and logs the recovered
// stack — the only serving-path log, because a panic is a code bug that
// must leave evidence even though the process survives it.
func (s *Server) notePanic(model string, err error) {
	s.panics.Add(1)
	stack := panicStack(err)
	if stack == nil {
		stack = []byte("(no stack captured)")
	}
	log.Printf("serve: recovered panic serving %q: %v\n%s", model, err, stack)
}

// Panics reports the number of requests failed by a recovered panic since
// the server started.
func (s *Server) Panics() int64 { return s.panics.Load() }

// record feeds one finished request into the stage histograms and trace
// rings. Everything here is lock-free or per-slot-locked and allocates
// nothing; with telemetry off every call is a nil-receiver no-op.
func (s *Server) record(st *ModelStats, model string, meta InferMeta, ts stageTimes, start time.Time, cause ErrorCause, err error) {
	if !s.obs {
		return
	}
	h := st.stages
	h.Record(obs.StageE2E, meta.Latency)
	if meta.BatchWait > 0 {
		h.Record(obs.StageAssembly, meta.BatchWait)
	}
	if ts.ran {
		h.Record(obs.StageQueue, meta.QueueWait)
		h.Record(obs.StageExec, meta.Exec)
	}
	sp := obs.Span{
		ID:         meta.RequestID,
		Model:      model,
		Batch:      meta.BatchSize,
		Start:      start,
		AssemblyNs: int64(meta.BatchWait),
		QueueNs:    int64(meta.QueueWait),
		ExecNs:     int64(meta.Exec),
		TotalNs:    int64(meta.Latency),
	}
	if err != nil {
		sp.Cause = cause.String()
		sp.Error = err.Error()
	}
	s.traces.Record(sp)
	if meta.Latency >= s.cfg.SlowThreshold {
		s.slow.Record(sp)
	}
}

func (s *Server) dispatch(ctx context.Context, cancel context.CancelFunc, model string, st *ModelStats, id uint64, feeds ramiel.Env, noBatch bool) (ramiel.Env, int, stageTimes, error) {
	maxBatch, _ := s.cfg.tuning(model)
	if maxBatch > 1 && !noBatch {
		b := s.batcher(model)
		if b == nil {
			return nil, 0, stageTimes{}, ErrShutdown
		}
		return b.submit(ctx, feeds)
	}
	e, err := s.reg.entry(model, 1)
	if err != nil {
		return nil, 0, stageTimes{}, err
	}
	outs, timing, err := s.pool.Do(ctx, func(runCtx context.Context) (ramiel.Env, error) {
		// Watchdog registration happens on the worker (concurrency ≤ the
		// slot table size) and costs a table scan plus atomics — no
		// allocation on the hot path.
		slot := s.dog.begin(model, st, id, cancel)
		outs, err := s.sessions.run(runCtx, e, feeds)
		if s.dog.end(slot) && err != nil {
			err = fmt.Errorf("%w: %w", ErrWatchdogKilled, err)
		}
		return outs, err
	})
	ts := stageTimes{queue: timing.Queue, exec: timing.Exec, ran: timing.Ran}
	if err != nil {
		if !errors.Is(err, ErrWatchdogKilled) && s.dog.wasKilled(id) {
			// Pool.Do returned the bare context error (the cancellation
			// landed mid-run); re-attach the watchdog attribution.
			err = fmt.Errorf("%w: %w", ErrWatchdogKilled, err)
		}
		return nil, 0, ts, err
	}
	return outs, 1, ts, nil
}

// RandomFeeds builds a deterministic valid request for the model — the
// server-side analogue of ramiel.RandomInputs, used by the HTTP layer's
// seed mode and by benchmarks.
func (s *Server) RandomFeeds(model string, seed uint64) (ramiel.Env, error) {
	g, err := s.reg.Graph(model)
	if err != nil {
		return nil, err
	}
	return ramiel.RandomInputs(g, seed), nil
}

// Uptime reports how long the server has been running.
func (s *Server) Uptime() time.Duration { return time.Since(s.start) }

// Close shuts the runtime down gracefully: new requests are rejected,
// pending micro-batches flush, and the pool drains within ctx.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	batchers := make([]*batcher, 0, len(s.batchers))
	for _, b := range s.batchers {
		batchers = append(batchers, b)
	}
	s.mu.Unlock()
	// The watchdog outlives the drain (a wedged in-flight run should still
	// be killable) and stops once the pool is settled. The closed guard
	// above makes this single-shot.
	defer s.dog.stopLoop()
	// Batcher close waits for in-flight batches (bounded per batch by the
	// request deadline, but possibly long); honor ctx rather than blocking
	// Server.Close past its budget.
	flushed := make(chan struct{})
	go func() {
		for _, b := range batchers {
			b.close()
		}
		close(flushed)
	}()
	select {
	case <-flushed:
	case <-ctx.Done():
	}
	if err := s.pool.Close(ctx); err != nil {
		return fmt.Errorf("serve: draining pool: %w", err)
	}
	return nil
}

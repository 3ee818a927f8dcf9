// Package fleet is the multi-replica tier above internal/serve: it turns N
// ramield-style replicas — in-process serve.Servers or remote daemons —
// into one service. Three mechanisms, all driven by live measurements
// rather than static configuration:
//
//   - Routing: consistent hashing on the model name pins each model to a
//     replica so that replica's program cache, prepacked weights, and
//     session arenas stay warm for it, with health/readiness tracking and
//     automatic spillover to the next ring member once the owner's queue
//     depth crosses a watermark.
//   - Admission control: a deadline-feasibility check at enqueue time —
//     predicted queue wait (replica backlog × live p50 execution time ÷
//     workers) plus p90 execution time against the request's remaining
//     deadline budget. Infeasible requests are rejected in microseconds
//     with a distinct 429 cause instead of timing out in milliseconds
//     while holding queue slots, and a bounded per-model pending window
//     sheds overload with cause-labeled counters.
//   - The latency-aware adaptive batching the replicas themselves run
//     (serve.Config.AdaptiveBatch) completes the picture: the fleet sheds
//     what cannot finish, and each replica sizes its micro-batch windows
//     from the live arrival rate and execution histograms.
//
// cmd/ramield serves a Front over HTTP whenever it runs more than one
// replica: -replicas N in-process, -remotes URLs on other hosts, or both.
package fleet

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	ramiel "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Shed sentinels. A shed request is answered with a serve.Refusal wrapping
// one of them — infeasible/queue-full as 429 (the client can retry with a
// looser deadline or less load), no-replica as 503 — each with a
// Retry-After estimate; match them with errors.Is.
var (
	// ErrInfeasible rejects a request whose predicted completion time
	// (queue wait + p90 execution) exceeds its deadline budget.
	ErrInfeasible = errors.New("fleet: deadline infeasible: predicted completion exceeds the request deadline")
	// ErrQueueFull rejects a request arriving while the model's pending
	// window (admitted, not yet finished) is at its bound.
	ErrQueueFull = errors.New("fleet: model queue full")
	// ErrNoReplica means no healthy, ready replica exists for the request.
	ErrNoReplica = errors.New("fleet: no ready replica")
)

// The front's sheds in the stack's one cause enum; modelState.sheds is
// indexed by cause − firstShedCause.
const (
	firstShedCause = serve.CauseInfeasible
	numShedCauses  = int(serve.CauseNoReplica-serve.CauseInfeasible) + 1
)

// Config tunes the fleet front. Zero values pick sensible defaults.
type Config struct {
	// NoAdmission disables the deadline-feasibility check and the pending
	// bound: every request routes straight to a replica. The A/B baseline
	// for the admission benchmarks.
	NoAdmission bool
	// MaxPending bounds admitted-but-unfinished requests per model at the
	// front (default 4 × total fleet workers, minimum 16). The bound is
	// what turns overload into microsecond rejections instead of an
	// unbounded queue of doomed requests.
	MaxPending int
	// SpillWatermark is the queued-request depth at which routing spills a
	// model to the next ring member (default per replica: 2 × its
	// workers).
	SpillWatermark int64
	// Deadline is the default per-request deadline when the caller's
	// context has none (default 30s) — admission needs a budget to check
	// against.
	Deadline time.Duration

	// MaxAttempts caps total tries per admitted request — the first
	// attempt plus any retries/hedges, each on a replica the request has
	// not tried yet. Default min(3, replica count); 1 disables re-routing.
	MaxAttempts int
	// HedgeDelay launches a second attempt on the next healthy ring
	// member when the first has not answered within this delay — the
	// "Tail at Scale" hedge against slow or silently dead replicas. First
	// response wins; the loser is cancelled. 0 disables hedging (default):
	// retries then happen only on explicit failures.
	HedgeDelay time.Duration
	// RetryBudget bounds extra attempts (retries + hedges) fleet-wide to
	// this fraction of admitted traffic, Envoy-style, so retry
	// amplification cannot melt an already-overloaded fleet. Default 0.2;
	// negative means no refill (only a small initial burst).
	RetryBudget float64
	// BreakerThreshold is the consecutive retryable-failure count that
	// trips a replica's circuit breaker, ejecting it from routing until a
	// half-open probe succeeds. Default 5; negative disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// admitting a half-open probe. Default 2s.
	BreakerCooldown time.Duration

	// MaxBodyBytes caps the front's POST /v1/infer request body (default
	// 8 MiB, negative disables) — the same input hardening the daemons
	// apply, enforced before any replica is consulted.
	MaxBodyBytes int64
}

func (c Config) withDefaults(totalWorkers, numReplicas int) Config {
	if c.MaxPending < 1 {
		c.MaxPending = 4 * totalWorkers
		if c.MaxPending < 16 {
			c.MaxPending = 16
		}
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = min(3, max(numReplicas, 1))
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 0.2
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// modelState is the front's per-model accounting: admission counters,
// pending gauge, and the live histograms the admission controller reads
// (observed execution and end-to-end times, plus the decision latency of
// rejections — the "reject in microseconds" claim, measured).
type modelState struct {
	requests atomic.Int64
	admitted atomic.Int64
	pending  atomic.Int64
	spills   atomic.Int64
	errors   atomic.Int64
	sheds    [numShedCauses]atomic.Int64

	// Failure-handling counters: extra attempts launched (retries after a
	// retryable failure, hedges after HedgeDelay), requests won by each,
	// and retries forgone because the fleet-wide budget was empty.
	retries         atomic.Int64
	retryWins       atomic.Int64
	hedges          atomic.Int64
	hedgeWins       atomic.Int64
	budgetExhausted atomic.Int64

	exec   obs.Histogram // replica-reported execution time of completed requests
	e2e    obs.Histogram // front-observed end-to-end time of admitted requests
	reject obs.Histogram // decision latency of shed requests
}

// RouteInfo reports how the front placed a request.
type RouteInfo struct {
	// Replica is the chosen replica's name (empty when shed before
	// placement).
	Replica string
	// Spilled is true when the request did not run on its ring owner
	// (watermark or health spillover).
	Spilled bool
	// Attempts is how many replica tries the request consumed (1 = no
	// retry or hedge; zero when shed before any attempt).
	Attempts int
}

// Front is the fleet tier: ring routing + admission control over a fixed
// replica set. All methods are safe for concurrent use.
type Front struct {
	cfg      Config
	replicas []Replica
	ring     *ring
	// totalWorkers is the fleet-wide worker count, fixed at construction —
	// the drain rate behind the queue-full Retry-After estimate.
	totalWorkers int

	// breakers is indexed like replicas; all nil when breakers are
	// disabled (BreakerThreshold < 0).
	breakers []*breaker
	// budget is the fleet-wide retry/hedge token bucket.
	budget *retryBudget

	mu     sync.Mutex
	models map[string]*modelState

	draining atomic.Bool
	start    time.Time

	// scratch pools the ring-walk order slice so routing stays
	// allocation-free on the admission fast path.
	scratch sync.Pool
}

// New creates a front over the given replicas. Replica names must be
// distinct (ring placement derives from them).
func New(cfg Config, replicas ...Replica) *Front {
	total := 0
	names := make([]string, len(replicas))
	for i, r := range replicas {
		names[i] = r.Name()
		total += r.Workers()
	}
	cfg = cfg.withDefaults(total, len(replicas))
	f := &Front{
		cfg:          cfg,
		replicas:     replicas,
		ring:         newRing(names),
		totalWorkers: total,
		breakers:     make([]*breaker, len(replicas)),
		budget:       newRetryBudget(cfg.RetryBudget, max(cfg.MaxPending/4, 4)),
		models:       map[string]*modelState{},
		start:        time.Now(),
		scratch: sync.Pool{New: func() any {
			s := make([]int, 0, 16)
			return &s
		}},
	}
	if cfg.BreakerThreshold > 0 {
		for i := range f.breakers {
			f.breakers[i] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
		}
	}
	return f
}

// Uptime reports how long the front has been running.
func (f *Front) Uptime() time.Duration { return time.Since(f.start) }

// BeginDrain flips the front's readiness off (readyz 503) so load
// balancers rotate away; in-flight and still-arriving requests keep being
// served. Idempotent.
func (f *Front) BeginDrain() { f.draining.Store(true) }

// Ready reports whether the front can serve: not draining and at least
// one replica ready.
func (f *Front) Ready() bool {
	if f.draining.Load() {
		return false
	}
	for _, r := range f.replicas {
		if r.Healthy() && r.Ready() {
			return true
		}
	}
	return false
}

// model returns (creating on demand) the per-model state.
func (f *Front) model(name string) *modelState {
	f.mu.Lock()
	defer f.mu.Unlock()
	ms, ok := f.models[name]
	if !ok {
		ms = &modelState{}
		f.models[name] = ms
	}
	return ms
}

// route picks a replica for the model: the first healthy, ready ring
// member whose circuit breaker admits traffic and whose queue is under its
// spill watermark; if every admissible member is over watermark, the
// least-queued one (load has saturated the fleet — admission, not routing,
// is the relief valve then). skip holds the replica indices the request
// has already tried (retries/hedges must land elsewhere); nil means none.
// The chosen replica's half-open probe slot, if any, is claimed — probe
// reports whether it was, and such a claim must be refunded if the
// attempt ends without a health signal. ok is false when no replica
// qualifies.
func (f *Front) route(model string, skip triedSet) (idx int, probe, spilled, ok bool) {
	sp := f.scratch.Get().(*[]int)
	order := f.ring.order(model, *sp)
	defer func() {
		*sp = order
		f.scratch.Put(sp)
	}()
	primary := -1
	best, bestQ := -1, int64(1<<62)
	for _, i := range order {
		r := f.replicas[i]
		if !r.Healthy() || !r.Ready() {
			continue
		}
		// primary is the first live ring member regardless of breaker
		// state: running anywhere else counts as a spill.
		if primary < 0 {
			primary = i
		}
		if skip.has(i) {
			continue
		}
		if b := f.breakers[i]; b != nil && !b.routable() {
			continue
		}
		queued, _ := r.Load()
		wm := f.cfg.SpillWatermark
		if wm <= 0 {
			wm = 2 * int64(r.Workers())
			if wm < 2 {
				wm = 2
			}
		}
		if queued >= wm || memPressured(r) {
			// Over watermark or out of memory headroom: only a least-queued
			// fallback once every admissible member is saturated (the
			// replica's own admission sheds then).
			if queued < bestQ {
				best, bestQ = i, queued
			}
			continue
		}
		if b := f.breakers[i]; b != nil {
			claimed, prb := b.claim()
			if !claimed {
				continue // lost the half-open probe slot; next member
			}
			return i, prb, i != primary, true
		}
		return i, false, i != primary, true
	}
	if best >= 0 {
		prb := false
		if b := f.breakers[best]; b != nil {
			// Best-effort: an extra half-open probe in the saturated case
			// is harmless, and a lost slot just means the probe rides
			// another request.
			_, prb = b.claim()
		}
		return best, prb, best != primary, true
	}
	return 0, false, false, false
}

// noteAttempt feeds one attempt's outcome into the replica's breaker.
// Retryable failures count against it; a success or an application-level
// error (the replica answered, so it is alive) resets it. The request's
// own cancellation or deadline says nothing about replica health — but if
// this attempt held the half-open probe slot (a hedge loser cancelled by
// the winner, a client disconnect, a deadline expiring mid-probe), the
// slot is refunded so the next request can probe; without the refund the
// replica would stay ejected until restart.
func (f *Front) noteAttempt(idx int, probe bool, err error) {
	b := f.breakers[idx]
	if b == nil {
		return
	}
	switch {
	case err == nil:
		b.onSuccess()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		if probe {
			b.refund()
		}
	case Retryable(err):
		b.onFailure()
	default:
		b.onSuccess()
	}
}

// predict estimates a request's completion time on a replica from the
// model's live histograms: the backlog drains at one p50 execution per
// worker, then the request itself costs up to p90. Returns (0, 0) while
// the model has no samples — a cold model admits everything (rejecting on
// no data would strand a model nobody has measured yet).
func (f *Front) predict(ms *modelState, r Replica) (wait, exec time.Duration) {
	p90 := time.Duration(ms.exec.Quantile(0.90))
	if p90 <= 0 {
		return 0, 0
	}
	queued, inflight := r.Load()
	return serve.DrainWait(queued+inflight, time.Duration(ms.exec.Quantile(0.50)), r.Workers()), p90
}

// shed records one rejection (cause counter + decision latency) and returns
// the refusal it is answered with. wait is the Retry-After basis, floored at
// the header's one-second granularity: an estimate of zero (no samples yet)
// must not tell clients to retry straight into a saturated fleet.
func (ms *modelState) shed(cause serve.ErrorCause, status int, sentinel error, since time.Time, wait time.Duration) error {
	ms.sheds[cause-firstShedCause].Add(1)
	ms.reject.Record(time.Since(since))
	return &serve.Refusal{Status: status, Cause: cause.String(), RetryAfter: max(wait, time.Second), Err: sentinel}
}

// Infer routes one request through the fleet: admission check, replica
// choice, execution, accounting. The returned RouteInfo reports placement
// even on failure (empty replica name when shed before placement).
func (f *Front) Infer(ctx context.Context, model string, feeds ramiel.Env, noBatch bool) (ramiel.Env, serve.InferMeta, RouteInfo, error) {
	t0 := time.Now()
	ms := f.model(model)
	ms.requests.Add(1)
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.cfg.Deadline)
		defer cancel()
	}

	// The pending bound needs no placement, so it runs before routing — a
	// queue-full shed must never consume a breaker's half-open probe slot —
	// and its Retry-After comes from the model's whole pending backlog
	// draining across the fleet's workers.
	if pending := ms.pending.Load(); !f.cfg.NoAdmission && pending >= int64(f.cfg.MaxPending) {
		wait := serve.DrainWait(pending, time.Duration(ms.exec.Quantile(0.50)), f.totalWorkers)
		return nil, serve.InferMeta{}, RouteInfo{},
			ms.shed(serve.CauseQueueFull, http.StatusTooManyRequests, ErrQueueFull, t0, wait)
	}

	idx, probe, spilled, ok := f.route(model, nil)
	if !ok {
		return nil, serve.InferMeta{}, RouteInfo{},
			ms.shed(serve.CauseNoReplica, http.StatusServiceUnavailable, ErrNoReplica, t0, 0)
	}
	rep := f.replicas[idx]
	info := RouteInfo{Replica: rep.Name(), Spilled: spilled}
	if spilled {
		ms.spills.Add(1)
	}

	if !f.cfg.NoAdmission {
		if wait, exec := f.predict(ms, rep); exec > 0 {
			dl, _ := ctx.Deadline()
			if wait+exec > time.Until(dl) {
				if probe {
					f.breakers[idx].refund()
				}
				return nil, serve.InferMeta{}, info,
					ms.shed(serve.CauseInfeasible, http.StatusTooManyRequests, ErrInfeasible, t0, wait)
			}
		}
	}

	ms.admitted.Add(1)
	f.budget.deposit()
	ms.pending.Add(1)
	outs, meta, served, attempts, err := f.runAttempts(ctx, ms, model, feeds, noBatch, idx, probe)
	ms.pending.Add(-1)
	info.Attempts = attempts
	if served != "" && served != info.Replica {
		// A retry or hedge won on a different replica than the one routing
		// chose: the request effectively spilled mid-flight.
		info.Replica = served
		if !info.Spilled {
			info.Spilled = true
			ms.spills.Add(1)
		}
	}
	// Admitted requests record end-to-end time whatever their outcome —
	// an admitted request that times out is exactly the signal the
	// feasibility check must see to stop admitting its successors.
	ms.e2e.Record(time.Since(t0))
	if err != nil {
		ms.errors.Add(1)
		return nil, meta, info, err
	}
	if meta.Exec > 0 {
		ms.exec.Record(meta.Exec)
	}
	return outs, meta, info, nil
}

// ModelSnapshot is the JSON view of one model's fleet-level accounting.
type ModelSnapshot struct {
	Requests int64 `json:"requests"`
	Admitted int64 `json:"admitted"`
	Pending  int64 `json:"pending"`
	Spills   int64 `json:"spills"`
	Errors   int64 `json:"errors"`
	// Shed splits rejections by cause (infeasible, queue_full,
	// no_replica); only non-zero causes appear.
	Shed map[string]int64 `json:"shed,omitempty"`
	// Failure-handling counters (zero values omitted): extra attempts
	// launched and won, and retries forgone on an empty budget.
	Retries         int64 `json:"retries,omitempty"`
	RetryWins       int64 `json:"retry_wins,omitempty"`
	Hedges          int64 `json:"hedges,omitempty"`
	HedgeWins       int64 `json:"hedge_wins,omitempty"`
	BudgetExhausted int64 `json:"retry_budget_exhausted,omitempty"`
	// Exec/E2E/Reject are the live histograms admission reads: replica
	// execution time, front end-to-end time, and the decision latency of
	// rejections. Omitted while empty.
	Exec   *obs.HistogramSnapshot `json:"exec,omitempty"`
	E2E    *obs.HistogramSnapshot `json:"e2e,omitempty"`
	Reject *obs.HistogramSnapshot `json:"reject,omitempty"`
}

// ReplicaSnapshot is the JSON view of one replica's live state.
type ReplicaSnapshot struct {
	Name     string `json:"name"`
	Healthy  bool   `json:"healthy"`
	Ready    bool   `json:"ready"`
	Queued   int64  `json:"queued"`
	InFlight int64  `json:"in_flight"`
	Workers  int    `json:"workers"`
	// Breaker is the circuit-breaker state label (closed/open/half_open);
	// empty when breakers are disabled. BreakerOpens counts trips.
	Breaker      string `json:"breaker,omitempty"`
	BreakerOpens int64  `json:"breaker_opens,omitempty"`
	// MemGoverned is true when the replica exports a memory-headroom
	// signal; MemHeadroomBytes is that signal (routing steers away at 0).
	MemGoverned      bool  `json:"mem_governed,omitempty"`
	MemHeadroomBytes int64 `json:"mem_headroom_bytes,omitempty"`
}

// Snapshot is the JSON view of the whole front (GET /v1/fleet).
type Snapshot struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Ready         bool                     `json:"ready"`
	Draining      bool                     `json:"draining"`
	Admission     bool                     `json:"admission"`
	MaxPending    int                      `json:"max_pending"`
	MaxAttempts   int                      `json:"max_attempts"`
	HedgeDelayMs  float64                  `json:"hedge_delay_ms,omitempty"`
	RetryTokens   int64                    `json:"retry_budget_tokens"`
	Replicas      []ReplicaSnapshot        `json:"replicas"`
	Models        map[string]ModelSnapshot `json:"models"`
}

func histPtr(h *obs.Histogram) *obs.HistogramSnapshot {
	snap := h.Snapshot()
	if snap.Count == 0 {
		return nil
	}
	return &snap
}

// SnapshotModel reads one model's accounting (zero value when the model
// has never been requested).
func (f *Front) SnapshotModel(model string) ModelSnapshot {
	f.mu.Lock()
	ms := f.models[model]
	f.mu.Unlock()
	if ms == nil {
		return ModelSnapshot{}
	}
	return ms.snapshot()
}

func (ms *modelState) snapshot() ModelSnapshot {
	snap := ModelSnapshot{
		Requests: ms.requests.Load(),
		Admitted: ms.admitted.Load(),
		Pending:  ms.pending.Load(),
		Spills:   ms.spills.Load(),
		Errors:   ms.errors.Load(),
		Exec:     histPtr(&ms.exec),
		E2E:      histPtr(&ms.e2e),
		Reject:   histPtr(&ms.reject),

		Retries:         ms.retries.Load(),
		RetryWins:       ms.retryWins.Load(),
		Hedges:          ms.hedges.Load(),
		HedgeWins:       ms.hedgeWins.Load(),
		BudgetExhausted: ms.budgetExhausted.Load(),
	}
	for i := range ms.sheds {
		if n := ms.sheds[i].Load(); n > 0 {
			if snap.Shed == nil {
				snap.Shed = make(map[string]int64, numShedCauses)
			}
			snap.Shed[(firstShedCause + serve.ErrorCause(i)).String()] = n
		}
	}
	return snap
}

// Snapshot reads the whole front's state.
func (f *Front) Snapshot() Snapshot {
	snap := Snapshot{
		UptimeSeconds: f.Uptime().Seconds(),
		Ready:         f.Ready(),
		Draining:      f.draining.Load(),
		Admission:     !f.cfg.NoAdmission,
		MaxPending:    f.cfg.MaxPending,
		MaxAttempts:   f.cfg.MaxAttempts,
		HedgeDelayMs:  float64(f.cfg.HedgeDelay) / float64(time.Millisecond),
		RetryTokens:   f.budget.tokens.Load() / 1000,
		Replicas:      make([]ReplicaSnapshot, 0, len(f.replicas)),
		Models:        map[string]ModelSnapshot{},
	}
	for i, r := range f.replicas {
		queued, inflight := r.Load()
		rs := ReplicaSnapshot{
			Name:     r.Name(),
			Healthy:  r.Healthy(),
			Ready:    r.Ready(),
			Queued:   queued,
			InFlight: inflight,
			Workers:  r.Workers(),
		}
		if b := f.breakers[i]; b != nil {
			rs.Breaker, rs.BreakerOpens = b.snapshot()
		}
		if mr, ok := r.(memReporter); ok {
			if free, known := mr.MemFree(); known {
				rs.MemGoverned = true
				rs.MemHeadroomBytes = free
			}
		}
		snap.Replicas = append(snap.Replicas, rs)
	}
	f.mu.Lock()
	states := make(map[string]*modelState, len(f.models))
	for name, ms := range f.models {
		states[name] = ms
	}
	f.mu.Unlock()
	for name, ms := range states {
		snap.Models[name] = ms.snapshot()
	}
	return snap
}

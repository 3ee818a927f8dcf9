package serve

import (
	"bufio"
	"context"
	"errors"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// ErrMemoryPressure marks a request rejected by memory-feasibility
// admission: projected working set past the budget. It arrives inside a
// Refusal (429, cause "memory", Retry-After from the expected drain).
var ErrMemoryPressure = errors.New("serve: memory budget exceeded, shedding")

// ErrWatchdogKilled wraps the run error of a request force-cancelled by the
// stuck-run watchdog. HTTP maps it to 504 with cause "watchdog".
var ErrWatchdogKilled = errors.New("serve: run killed by stuck-run watchdog")

// ErrBodyTooLarge marks an HTTP request body rejected by the MaxBodyBytes
// cap (413, cause "body_too_large").
var ErrBodyTooLarge = errors.New("serve: request body too large")

// DetectMemoryBudget returns a default memory budget for this process: the
// given fraction (≤ 0 means 0.8) of the tightest limit among the cgroup v2
// memory.max, the cgroup v1 limit, and /proc/meminfo MemTotal. Zero when
// nothing is readable (non-Linux) — callers should then treat governance as
// disabled unless an explicit budget is set.
func DetectMemoryBudget(fraction float64) int64 {
	if fraction <= 0 {
		fraction = 0.8
	}
	limit := int64(0)
	note := func(v int64) {
		if v > 0 && (limit == 0 || v < limit) {
			limit = v
		}
	}
	for _, path := range []string{
		"/sys/fs/cgroup/memory.max",
		"/sys/fs/cgroup/memory/memory.limit_in_bytes",
	} {
		if b, err := os.ReadFile(path); err == nil {
			s := strings.TrimSpace(string(b))
			if s != "max" {
				if v, err := strconv.ParseInt(s, 10, 64); err == nil && v < 1<<60 {
					note(v)
				}
			}
		}
	}
	if f, err := os.Open("/proc/meminfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "MemTotal:" {
				if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					note(kb << 10)
				}
				break
			}
		}
		f.Close()
	}
	return int64(fraction * float64(limit))
}

// modelEstimate is one model's asynchronously-computed per-request memory
// forecast: PeakLiveBytes + ScratchBytes of the batch-1 variant. bytes
// stays 0 (admit everything — a cold model must not shed on a guess it
// does not have) until the background sizing run completes.
type modelEstimate struct {
	bytes atomic.Int64
}

// memGovernor is the serve tier's memory-feasibility admission controller:
// admit a request iff
//
//	arena InUseBytes + reserved(admitted, unfinished) + estimate(model) ≤ budget
//
// where estimate is the model's static memory-plan forecast, computed once
// per model off the request path (the sizing run is a full sequential
// execution). The admit/release hot path is a few atomic operations and a
// sync.Map hit — zero allocations.
type memGovernor struct {
	budget int64
	// arena is the server's shared arena stats block: its InUseBytes gauge
	// is the live component of the projection.
	arena *tensor.ArenaStats
	// reserved sums the estimates of admitted-but-unfinished requests —
	// memory the projection says is about to be resident.
	reserved atomic.Int64
	sheds    atomic.Int64
	// estimates maps model name -> *modelEstimate.
	estimates sync.Map
}

func newMemGovernor(budget int64, arena *tensor.ArenaStats) *memGovernor {
	if budget <= 0 {
		return nil
	}
	return &memGovernor{budget: budget, arena: arena}
}

// estimate returns the model's per-request byte forecast, 0 while unknown.
// The first call per model seeds the background sizing run.
func (g *memGovernor) estimate(s *Server, model string) int64 {
	if v, ok := g.estimates.Load(model); ok {
		return v.(*modelEstimate).bytes.Load()
	}
	me := &modelEstimate{}
	if actual, loaded := g.estimates.LoadOrStore(model, me); loaded {
		return actual.(*modelEstimate).bytes.Load()
	}
	go func() {
		prog, err := s.reg.Program(model, 1)
		if err != nil {
			return // compile failures surface on the request path, not here
		}
		est, err := prog.MemoryEstimate()
		if err != nil {
			return // unsizable graph: keep admitting
		}
		me.bytes.Store(est.PeakLiveBytes + est.ScratchBytes)
	}()
	return 0
}

// setEstimate installs a forecast directly (tests' fake estimate tables).
func (g *memGovernor) setEstimate(model string, bytes int64) {
	me := &modelEstimate{}
	me.bytes.Store(bytes)
	if actual, loaded := g.estimates.LoadOrStore(model, me); loaded {
		actual.(*modelEstimate).bytes.Store(bytes)
	}
}

// admit decides one request. ok=false means shed; otherwise the returned
// reservation must be handed back via release when the request finishes.
func (g *memGovernor) admit(s *Server, model string) (reserved int64, ok bool) {
	if g == nil {
		return 0, true
	}
	est := g.estimate(s, model)
	inUse := g.arena.InUseBytes.Load()
	for {
		res := g.reserved.Load()
		if inUse+res+est > g.budget {
			g.sheds.Add(1)
			return 0, false
		}
		if est == 0 || g.reserved.CompareAndSwap(res, res+est) {
			return est, true
		}
	}
}

// release returns an admitted request's reservation.
func (g *memGovernor) release(reserved int64) {
	if g == nil || reserved == 0 {
		return
	}
	g.reserved.Add(-reserved)
}

// memoryShed is the refusal a request shed by memory admission is answered
// with: 429, cause "memory", and a Retry-After from the admitted backlog (in
// requests, from the reservation ledger) draining at the model's live median
// execution time.
func (s *Server) memoryShed(model string, st *ModelStats) error {
	var backlog int64
	if est := s.gov.estimate(s, model); est > 0 {
		backlog = s.gov.reserved.Load()/est + 1
	}
	p50 := time.Duration(st.stages.Stage(obs.StageExec).Quantile(0.50))
	return &Refusal{
		Status:     http.StatusTooManyRequests,
		Cause:      CauseMemory.String(),
		RetryAfter: max(DrainWait(backlog, p50, s.cfg.Workers), time.Second),
		Err:        ErrMemoryPressure,
	}
}

// MemoryStatsSnapshot is the JSON/probe view of the resource governor.
type MemoryStatsSnapshot struct {
	// Enabled reports whether memory governance is active.
	Enabled bool `json:"enabled"`
	// BudgetBytes is the configured hard budget.
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
	// ReservedBytes is the admission ledger: estimates of admitted,
	// unfinished requests.
	ReservedBytes int64 `json:"reserved_bytes,omitempty"`
	// InUseBytes mirrors the arena gauge the projection reads.
	InUseBytes int64 `json:"in_use_bytes,omitempty"`
	// HeadroomBytes = budget − in-use − reserved (floored at 0). The fleet
	// tier routes away from replicas whose headroom hits zero.
	HeadroomBytes int64 `json:"headroom_bytes"`
	// Sheds counts requests rejected by memory admission.
	Sheds int64 `json:"sheds_total"`
	// ArenaDenials counts arena Gets denied by the budget mid-run.
	ArenaDenials int64 `json:"arena_denials_total,omitempty"`
	// SessionDrops counts pooled sessions discarded after a budget denial
	// (their held free lists return to the GC under pressure).
	SessionDrops int64 `json:"session_drops_total,omitempty"`
	// WatchdogKills counts runs force-cancelled by the stuck-run watchdog.
	WatchdogKills int64 `json:"watchdog_kills_total"`
}

// MemoryStats reports the resource-governance state; Enabled is false (all
// zeros except watchdog kills) when no budget is configured.
func (s *Server) MemoryStats() MemoryStatsSnapshot {
	var snap MemoryStatsSnapshot
	if s.dog != nil {
		snap.WatchdogKills = s.dog.kills.Load()
	}
	g := s.gov
	if g == nil {
		return snap
	}
	snap.Enabled = true
	snap.BudgetBytes = g.budget
	snap.ReservedBytes = g.reserved.Load()
	snap.InUseBytes = g.arena.InUseBytes.Load()
	snap.ArenaDenials = g.arena.BudgetDenials.Load()
	if h := g.budget - snap.InUseBytes - snap.ReservedBytes; h > 0 {
		snap.HeadroomBytes = h
	}
	snap.Sheds = g.sheds.Load()
	snap.SessionDrops = s.sessions.budgetDrops.Load()
	return snap
}

// MemHeadroom reports the governor's current headroom; known is false when
// governance is disabled. This is the signal fleet routing reads.
func (s *Server) MemHeadroom() (bytes int64, known bool) {
	snap := s.MemoryStats()
	return snap.HeadroomBytes, snap.Enabled
}

// watchSlot tracks one in-flight run for the watchdog. start is armed only
// while the run is on a worker (so the table needs Workers entries); the
// mutex guards the identity fields against the ticker.
type watchSlot struct {
	used   atomic.Bool
	start  atomic.Int64 // UnixNano at begin; 0 = disarmed
	killed atomic.Bool

	mu     sync.Mutex
	model  string
	st     *ModelStats
	cancel context.CancelFunc
	id     uint64
}

// watchdog force-cancels runs that exceed factor × the model's live p99
// execution time (floored at floor — also the whole limit while a model has
// no samples yet). A pathological input then degrades one request instead
// of wedging a worker slot until the client deadline. begin/end on the
// serving path are a table scan plus a few atomics — no allocation.
type watchdog struct {
	slots  []watchSlot
	factor float64
	floor  time.Duration
	kills  atomic.Int64
	// killedIDs is a small ring of recently killed request ids. Pool.Do
	// returns the bare context error when a cancellation lands mid-run, so
	// the ErrWatchdogKilled wrap applied inside the pool fn can be lost;
	// dispatch re-attributes the kill by looking the request id up here.
	killedIDs []atomic.Uint64
	killedPos atomic.Uint64
	// batchSeq hands synthetic ids to batch runs (high bit set, so they
	// never collide with server request ids) for the same attribution.
	batchSeq atomic.Uint64
	// killAge records how old runs were when killed.
	killAge obs.Histogram
	stop    chan struct{}
	done    chan struct{}
}

func newWatchdog(workers int, factor float64, floor time.Duration) *watchdog {
	w := &watchdog{
		slots:     make([]watchSlot, workers),
		factor:    factor,
		floor:     floor,
		killedIDs: make([]atomic.Uint64, max(2*workers, 8)),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	tick := floor / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 100*time.Millisecond {
		tick = 100 * time.Millisecond
	}
	go w.loop(tick)
	return w
}

// begin registers a run that just started on a pool worker. Returns nil
// (unmonitored) if every slot is taken — impossible when the table is sized
// to the worker count, but fail-open is the right degradation anyway.
func (w *watchdog) begin(model string, st *ModelStats, id uint64, cancel context.CancelFunc) *watchSlot {
	if w == nil || cancel == nil {
		return nil
	}
	for i := range w.slots {
		sl := &w.slots[i]
		if sl.used.CompareAndSwap(false, true) {
			sl.mu.Lock()
			sl.model, sl.st, sl.cancel, sl.id = model, st, cancel, id
			sl.mu.Unlock()
			sl.killed.Store(false)
			sl.start.Store(time.Now().UnixNano()) // arm last
			return sl
		}
	}
	return nil
}

// end releases the slot and reports whether the watchdog killed the run.
func (w *watchdog) end(sl *watchSlot) bool {
	if sl == nil {
		return false
	}
	sl.start.Store(0) // disarm before the identity fields are cleared
	killed := sl.killed.Load()
	sl.mu.Lock()
	sl.model, sl.st, sl.cancel = "", nil, nil
	sl.mu.Unlock()
	sl.used.Store(false)
	return killed
}

func (w *watchdog) loop(tick time.Duration) {
	defer close(w.done)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-t.C:
			w.sweep(now)
		}
	}
}

// sweep inspects every armed slot and kills runs past their limit.
func (w *watchdog) sweep(now time.Time) {
	for i := range w.slots {
		sl := &w.slots[i]
		started := sl.start.Load()
		if started == 0 || sl.killed.Load() {
			continue
		}
		age := now.UnixNano() - started
		if age < int64(w.floor) {
			continue // cheapest rejection first; floor ≤ every limit
		}
		sl.mu.Lock()
		st, cancel, model, id := sl.st, sl.cancel, sl.model, sl.id
		sl.mu.Unlock()
		limit := int64(w.floor)
		if st != nil {
			if p99 := st.stages.Stage(obs.StageExec).Quantile(0.99); p99 > 0 {
				if l := int64(w.factor * float64(p99)); l > limit {
					limit = l
				}
			}
		}
		if age <= limit || cancel == nil {
			continue
		}
		// Re-check under the lock that the slot still belongs to the run we
		// measured (same start stamp) before committing the kill, so a slot
		// recycled between loads never kills its new occupant.
		sl.mu.Lock()
		if sl.start.Load() == started && !sl.killed.Swap(true) {
			cancel = sl.cancel
			sl.mu.Unlock()
			// Record the kill before cancelling: the cancelled run's error
			// path asks wasKilled, and must not find the ring without it.
			if id != 0 {
				w.killedIDs[w.killedPos.Add(1)%uint64(len(w.killedIDs))].Store(id)
			}
			cancel()
			w.kills.Add(1)
			w.killAge.Record(time.Duration(age))
			// The run's stall diagnostic (lane/op position) arrives with the
			// request error; this log marks who pulled the trigger.
			log.Printf("serve: watchdog killed request %d model %q after %v (limit %v)",
				id, model, time.Duration(age).Round(time.Millisecond), time.Duration(limit).Round(time.Millisecond))
		} else {
			sl.mu.Unlock()
		}
	}
}

// wasKilled reports whether the watchdog recently killed the request with
// this id. Checked on error paths only; the ring scan is a handful of
// atomic loads.
func (w *watchdog) wasKilled(id uint64) bool {
	if w == nil || id == 0 {
		return false
	}
	for i := range w.killedIDs {
		if w.killedIDs[i].Load() == id {
			return true
		}
	}
	return false
}

// batchID mints a synthetic request id for a batch run (0 when the
// watchdog is off).
func (w *watchdog) batchID() uint64 {
	if w == nil {
		return 0
	}
	return w.batchSeq.Add(1) | 1<<63
}

// stopLoop terminates the ticker goroutine (idempotent via Server.Close's
// single-shot guard).
func (w *watchdog) stopLoop() {
	if w == nil {
		return
	}
	close(w.stop)
	<-w.done
}

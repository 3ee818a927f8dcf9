package fleet

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	ramiel "repro"
	"repro/internal/serve"
)

// Retryable reports whether a replica failure may be retried on another
// replica. Transport-level failures (connection refused/reset, a timeout
// on the wire), replica-side 5xx, and shutdown/drain errors are retryable:
// the same request can succeed elsewhere, and these are exactly the
// failures that count against the replica's circuit breaker. Client-side
// errors (4xx: bad feeds, unknown model), a reply past the front's cap
// (502, cause reply_too_large), deadline expiry, and cancellation are not
// — they would fail identically anywhere (or the client is gone) and say
// nothing about replica health.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var te *TransportError
	if errors.As(err, &te) {
		return true
	}
	// A refusal means the replica answered, so only a 5xx is a replica
	// failure; a 4xx (a memory shed's 429 included) is not retried, nor is
	// a reply past the front's cap, which every replica would send alike.
	var re *serve.Refusal
	if errors.As(err, &re) {
		return re.Status >= 500 && re.Cause != serve.CauseReplyTooLarge.String()
	}
	// In-process replicas surface serve errors directly: a draining
	// replica cannot take the request, but a fleet sibling can.
	if errors.Is(err, serve.ErrShutdown) || errors.Is(err, serve.ErrBatcherClosed) {
		return true
	}
	// Everything else (validation, compile, execution, panic) is treated
	// as deterministic for this request: re-running it elsewhere would
	// burn budget to fail the same way.
	return false
}

// retryBudget bounds extra attempts (retries + hedges) fleet-wide to a
// fraction of admitted traffic, Envoy-style: each admitted request
// deposits rate millitokens (capped at max), each extra attempt spends
// 1000. The bucket starts full so a cold fleet can still retry its first
// failures. Lock-free and clock-free, so it is deterministic under test.
type retryBudget struct {
	tokens atomic.Int64 // millitokens
	rate   int64        // deposited per admitted request
	max    int64        // cap and cold-start balance
}

func newRetryBudget(ratio float64, burst int) *retryBudget {
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	if burst < 1 {
		burst = 1
	}
	b := &retryBudget{rate: int64(ratio * 1000), max: int64(burst) * 1000}
	b.tokens.Store(b.max)
	return b
}

func (b *retryBudget) deposit() {
	if b.rate == 0 {
		return
	}
	for {
		cur := b.tokens.Load()
		next := min(cur+b.rate, b.max)
		if next == cur || b.tokens.CompareAndSwap(cur, next) {
			return
		}
	}
}

func (b *retryBudget) take() bool {
	for {
		cur := b.tokens.Load()
		if cur < 1000 {
			return false
		}
		if b.tokens.CompareAndSwap(cur, cur-1000) {
			return true
		}
	}
}

// triedSet records which replica indices a request has already attempted,
// as a bitset sized to the fleet — a single word would silently let
// retries in fleets past 64 replicas land back on a replica that already
// failed the request. A nil set (the first attempt's route) has no
// members.
type triedSet []uint64

func newTriedSet(n int) triedSet { return make(triedSet, (n+63)/64) }

func (t triedSet) add(i int) { t[i>>6] |= 1 << uint(i&63) }

func (t triedSet) has(i int) bool { return t != nil && t[i>>6]&(1<<uint(i&63)) != 0 }

// Attempt kinds, for win accounting.
const (
	attemptFirst = iota
	attemptRetry
	attemptHedge
)

type attemptResult struct {
	outs ramiel.Env
	meta serve.InferMeta
	err  error
	idx  int
	kind int
}

// runAttempts executes one admitted request under the retry/hedge policy:
// the first attempt goes to the routed replica; a hedge launches on the
// next untried healthy member if HedgeDelay passes without an answer; a
// retryable failure relaunches the same way. Extra attempts are bounded by
// MaxAttempts, the fleet-wide retry budget, and the request's remaining
// deadline (every attempt runs under the request context). The first
// successful response wins and the losers are cancelled; their late
// results land in a buffered channel, so no goroutine outlives the request
// blocked on a send — the exactly-once contract the chaos soak asserts.
func (f *Front) runAttempts(ctx context.Context, ms *modelState, model string, feeds ramiel.Env, noBatch bool, first int, firstProbe bool) (ramiel.Env, serve.InferMeta, string, int, error) {
	maxAttempts := f.cfg.MaxAttempts
	results := make(chan attemptResult, maxAttempts)
	actx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	tried := newTriedSet(len(f.replicas))
	attempts := 0
	launch := func(idx, kind int, probe bool) {
		tried.add(idx)
		attempts++
		rep := f.replicas[idx]
		go func() {
			outs, meta, err := rep.Infer(actx, model, feeds, noBatch)
			f.noteAttempt(idx, probe, err)
			results <- attemptResult{outs: outs, meta: meta, err: err, idx: idx, kind: kind}
		}()
	}
	launch(first, attemptFirst, firstProbe)

	var hedge <-chan time.Time
	if f.cfg.HedgeDelay > 0 && maxAttempts > 1 {
		t := time.NewTimer(f.cfg.HedgeDelay)
		defer t.Stop()
		hedge = t.C
	}

	// spawn launches one more attempt on an untried, routable replica if
	// the attempt cap, the retry budget, and the deadline all allow it.
	spawn := func(kind int) bool {
		if attempts >= maxAttempts || ctx.Err() != nil {
			return false
		}
		idx, probe, _, ok := f.route(model, tried)
		if !ok {
			return false
		}
		if !f.budget.take() {
			// The attempt never launches, so routing's half-open claim must
			// come back — the same leak noteAttempt plugs for cancellations.
			if probe {
				f.breakers[idx].refund()
			}
			ms.budgetExhausted.Add(1)
			return false
		}
		launch(idx, kind, probe)
		return true
	}

	outstanding := 1
	lastIdx := first
	var lastErr error
	for {
		select {
		case r := <-results:
			outstanding--
			lastIdx = r.idx
			if r.err == nil {
				switch r.kind {
				case attemptRetry:
					ms.retryWins.Add(1)
				case attemptHedge:
					ms.hedgeWins.Add(1)
				}
				return r.outs, r.meta, f.replicas[r.idx].Name(), attempts, nil
			}
			if ctx.Err() != nil {
				// The request's own deadline/cancel: report that, not the
				// attempt's failure mode.
				return nil, r.meta, f.replicas[r.idx].Name(), attempts, ctx.Err()
			}
			if !Retryable(r.err) {
				return nil, r.meta, f.replicas[r.idx].Name(), attempts, r.err
			}
			lastErr = r.err
			if spawn(attemptRetry) {
				ms.retries.Add(1)
				outstanding++
			}
			if outstanding == 0 {
				return nil, r.meta, f.replicas[r.idx].Name(), attempts, lastErr
			}
		case <-hedge:
			hedge = nil
			if spawn(attemptHedge) {
				ms.hedges.Add(1)
				outstanding++
			}
		case <-ctx.Done():
			return nil, serve.InferMeta{}, f.replicas[lastIdx].Name(), attempts, ctx.Err()
		}
	}
}

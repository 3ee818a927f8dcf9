package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	ramiel "repro"
)

// ErrBatcherClosed is returned for requests submitted after shutdown began.
var ErrBatcherClosed = errors.New("serve: batcher closed")

// batchResult is one request's share of a flushed batch. assembly is how
// long this request waited for batch companions before the flush; timing is
// the batch run's pool attribution (shared by every member).
type batchResult struct {
	outs      ramiel.Env
	batchSize int
	assembly  time.Duration
	timing    Timing
	err       error
}

// inferJob is a queued single-sample request: feeds keyed by the model's
// batch-1 input names, result delivered on res (buffered, never blocks the
// flusher). submit timestamps the enqueue so the flusher can attribute the
// batch-assembly wait per member.
type inferJob struct {
	feeds  ramiel.Env
	res    chan batchResult
	submit time.Time
}

// batcher coalesces single-sample requests for one model into dynamic
// micro-batches (Section III-E serving): a request waits at most flushAfter
// for companions; a full window of maxBatch flushes immediately. A flush of
// n > 1 requests runs the model's hyperclustered batch-n program — queued
// concurrency becomes intra-request parallelism — while a flush of 1 (low
// load) falls back to the plain batch-1 plan with no batching overhead
// beyond the wait.
type batcher struct {
	model      string
	reg        *Registry
	pool       *Pool
	sessions   *sessionSource
	maxBatch   int
	flushAfter time.Duration
	deadline   time.Duration
	stats      *ModelStats
	// dog is the server's stuck-run watchdog (nil = off): batch runs
	// register with it like unbatched ones, so a wedged batch is killed
	// instead of holding a worker until the batch deadline.
	dog *watchdog
	// adapt, when non-nil, chooses the flush window per window from live
	// latency/arrival measurements (Config.AdaptiveBatch); nil keeps the
	// static flushAfter policy.
	adapt *batchAdapter

	mu      sync.Mutex
	pending []*inferJob
	timer   *time.Timer
	// gen numbers the current window; a timer callback armed for an older
	// generation is stale (its window already flushed by size) and must
	// not flush the new window early.
	gen    uint64
	closed bool
	// inflight tracks spawned runBatch goroutines so close can wait for
	// them while the worker pool is still accepting work.
	inflight sync.WaitGroup
}

func newBatcher(model string, reg *Registry, pool *Pool, sessions *sessionSource, maxBatch int, flushAfter, deadline time.Duration, stats *ModelStats, adapt *batchAdapter, dog *watchdog) *batcher {
	return &batcher{
		model:      model,
		reg:        reg,
		pool:       pool,
		sessions:   sessions,
		maxBatch:   maxBatch,
		flushAfter: flushAfter,
		deadline:   deadline,
		stats:      stats,
		adapt:      adapt,
		dog:        dog,
	}
}

// armWindow picks the flush window for a freshly opened batching window
// (static flushAfter, or the adaptive controller's choice) and records it
// in the per-model gauge.
func (b *batcher) armWindow(pending int) time.Duration {
	w := b.flushAfter
	if b.adapt != nil {
		w = b.adapt.window(pending)
	}
	b.stats.FlushWindowNs.Store(int64(w))
	return w
}

// submit queues one single-sample request and waits for its slice of the
// batch result. ctx only abandons the wait; the underlying batch still
// completes for its other members.
func (b *batcher) submit(ctx context.Context, feeds ramiel.Env) (ramiel.Env, int, stageTimes, error) {
	job := &inferJob{feeds: feeds, res: make(chan batchResult, 1), submit: time.Now()}
	b.adapt.note(job.submit)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, 0, stageTimes{}, ErrBatcherClosed
	}
	b.pending = append(b.pending, job)
	b.stats.noteQueued()
	if len(b.pending) >= b.maxBatch {
		b.flushLocked()
	} else if len(b.pending) == 1 {
		gen := b.gen
		b.timer = time.AfterFunc(b.armWindow(1), func() { b.flushTimeout(gen) })
	}
	b.mu.Unlock()

	select {
	case r := <-job.res:
		ts := stageTimes{assembly: r.assembly, queue: r.timing.Queue, exec: r.timing.Exec, ran: r.timing.Ran}
		return r.outs, r.batchSize, ts, r.err
	case <-ctx.Done():
		return nil, 0, stageTimes{assembly: time.Since(job.submit)}, ctx.Err()
	}
}

// flushTimeout is the timer callback: flush the window it was armed for,
// unless that window already flushed by size (generation moved on).
func (b *batcher) flushTimeout(gen uint64) {
	b.mu.Lock()
	if b.gen == gen {
		b.flushLocked()
	}
	b.mu.Unlock()
}

// flushLocked hands the pending window to a runner goroutine. Caller holds
// b.mu.
func (b *batcher) flushLocked() {
	b.gen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	if len(b.pending) == 0 {
		return
	}
	jobs := b.pending
	b.pending = nil
	b.stats.QueueDepth.Add(int64(-len(jobs)))
	b.inflight.Add(1)
	go func() {
		defer b.inflight.Done()
		// Backstop for panics in the batcher's own merge/split code, which
		// runs on this goroutine outside the pool's recover. The sends are
		// non-blocking: members already answered before the panic (their
		// one-slot buffers full) must not wedge this goroutine.
		defer func() {
			if r := recover(); r != nil {
				res := batchResult{err: newPanicError(r, debug.Stack())}
				for _, job := range jobs {
					select {
					case job.res <- res:
					default:
					}
				}
			}
		}()
		b.runBatch(jobs)
	}()
}

// runBatch executes one coalesced window through the worker pool and
// scatters the outputs back to the member requests. The batch runs under
// its own deadline context (a batch outlives any single member's context —
// one member giving up must not abort its companions), and the deadline
// now aborts the run itself: lanes observe the expiry mid-flight instead
// of computing a doomed batch to completion.
func (b *batcher) runBatch(jobs []*inferJob) {
	n := len(jobs)
	b.stats.noteBatch(n)
	// The flush instant closes every member's batch-assembly window.
	flushT := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), b.deadline)
	defer cancel()

	e, err := b.reg.entry(b.model, n)
	if err != nil {
		b.failAll(jobs, flushT, Timing{}, err)
		return
	}
	feeds := jobs[0].feeds
	if n > 1 {
		merged := make(ramiel.Env, len(feeds)*n)
		for s, job := range jobs {
			for name, t := range job.feeds {
				merged[ramiel.SampleValueName(name, s)] = t
			}
		}
		feeds = merged
	}
	dogID := b.dog.batchID()
	outs, timing, err := b.pool.Do(ctx, func(runCtx context.Context) (ramiel.Env, error) {
		// The batch already owns a cancel (its deadline context); the
		// watchdog reuses it, so a wedged batch degrades one window, not a
		// worker slot. The kill fails every member with cause "watchdog".
		slot := b.dog.begin(b.model, b.stats, dogID, cancel)
		outs, err := b.sessions.run(runCtx, e, feeds)
		if b.dog.end(slot) && err != nil {
			err = fmt.Errorf("%w: %w", ErrWatchdogKilled, err)
		}
		return outs, err
	})
	if err != nil {
		if !errors.Is(err, ErrWatchdogKilled) && b.dog.wasKilled(dogID) {
			// Pool.Do returned the bare context error; re-attach the kill.
			err = fmt.Errorf("%w: %w", ErrWatchdogKilled, err)
		}
		b.failAll(jobs, flushT, timing, err)
		return
	}
	if n == 1 {
		jobs[0].res <- batchResult{outs: outs, batchSize: 1,
			assembly: flushT.Sub(jobs[0].submit), timing: timing}
		return
	}
	// Split the replicated outputs back per sample.
	split := make([]ramiel.Env, n)
	for i := range split {
		split[i] = ramiel.Env{}
	}
	for name, t := range outs {
		s := ramiel.SampleIndexOf(name)
		if s < 0 || s >= n {
			b.failAll(jobs, flushT, timing, fmt.Errorf("serve: batch output %q has no valid sample index", name))
			return
		}
		split[s][ramiel.BaseValueName(name)] = t
	}
	for s, job := range jobs {
		job.res <- batchResult{outs: split[s], batchSize: n,
			assembly: flushT.Sub(job.submit), timing: timing}
	}
}

func (b *batcher) failAll(jobs []*inferJob, flushT time.Time, timing Timing, err error) {
	for _, job := range jobs {
		job.res <- batchResult{err: err, assembly: flushT.Sub(job.submit), timing: timing}
	}
}

// close flushes any pending window, rejects future submissions, and waits
// for in-flight batches to finish (so they complete before the worker pool
// shuts down; each is bounded by the request deadline).
func (b *batcher) close() {
	b.mu.Lock()
	b.flushLocked()
	b.closed = true
	b.mu.Unlock()
	b.inflight.Wait()
}

package fleet

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	ramiel "repro"
	"repro/internal/bench"
	"repro/internal/serve"
)

// queuedReplica models a single-worker replica with a real FIFO queue and
// deterministic service time — the queueing system admission control is
// about, without kernel-execution noise: under overload the queue grows
// without bound and late arrivals burn their whole deadline waiting.
// Expired requests are dropped at dequeue (matching serve's context-aware
// pool), so the no-admission baseline fails by timeout, not by crash.
type queuedReplica struct {
	name    string
	service time.Duration
	jobs    chan *qJob
	stop    chan struct{}

	queued   chan struct{} // len() = queue depth; buffered like jobs
	inflight chan struct{} // len() = in-flight (0 or 1)
}

type qJob struct {
	ctx  context.Context
	done chan error
}

func newQueuedReplica(name string, service time.Duration) *queuedReplica {
	q := &queuedReplica{
		name:     name,
		service:  service,
		jobs:     make(chan *qJob, 10000),
		stop:     make(chan struct{}),
		queued:   make(chan struct{}, 10000),
		inflight: make(chan struct{}, 1),
	}
	go q.worker()
	return q
}

func (q *queuedReplica) worker() {
	for {
		select {
		case job := <-q.jobs:
			<-q.queued
			if job.ctx.Err() != nil {
				job.done <- job.ctx.Err()
				continue
			}
			q.inflight <- struct{}{}
			t := time.NewTimer(q.service)
			select {
			case <-t.C:
				job.done <- nil
			case <-job.ctx.Done():
				t.Stop()
				job.done <- job.ctx.Err()
			}
			<-q.inflight
		case <-q.stop:
			return
		}
	}
}

func (q *queuedReplica) Name() string         { return q.name }
func (q *queuedReplica) Healthy() bool        { return true }
func (q *queuedReplica) Ready() bool          { return true }
func (q *queuedReplica) Workers() int         { return 1 }
func (q *queuedReplica) Load() (int64, int64) { return int64(len(q.queued)), int64(len(q.inflight)) }
func (q *queuedReplica) Close()               { close(q.stop) }

func (q *queuedReplica) Infer(ctx context.Context, model string, feeds ramiel.Env, noBatch bool) (ramiel.Env, serve.InferMeta, error) {
	job := &qJob{ctx: ctx, done: make(chan error, 1)}
	q.queued <- struct{}{}
	q.jobs <- job
	if err := <-job.done; err != nil {
		return nil, serve.InferMeta{}, err
	}
	return feeds, serve.InferMeta{BatchSize: 1, Exec: q.service}, nil
}

// BenchmarkFleetAdmission drives the fleet 3x over capacity with an
// open-loop generator, admission on vs off. The numbers that matter:
// p99_shed_us (the microsecond-rejection contract), p99_ok_ms (what
// accepted requests experience — bounded by the pending window with
// admission on, by the client timeout without), and the ok/shed/timeout
// split, reported as custom benchmark metrics.
func BenchmarkFleetAdmission(b *testing.B) {
	const (
		service  = 2 * time.Millisecond // per-request service time, 1 worker each
		replicas = 2                    // capacity = 1000 req/s
		rate     = 3000                 // offered load, 3x capacity
		duration = 300 * time.Millisecond
		timeout  = 250 * time.Millisecond
	)
	for _, mode := range []struct {
		name        string
		noAdmission bool
	}{{"on", false}, {"off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for iter := 0; iter < b.N; iter++ {
				reps := make([]Replica, replicas)
				qs := make([]*queuedReplica, replicas)
				for i := range reps {
					qs[i] = newQueuedReplica(fmt.Sprintf("r%d", i), service)
					reps[i] = qs[i]
				}
				front := New(Config{NoAdmission: mode.noAdmission}, reps...)
				gen := &bench.LoadGen{
					Rate:     rate,
					Duration: duration,
					Timeout:  timeout,
					Do: func(ctx context.Context, i int) error {
						_, _, _, err := front.Infer(ctx, "m", nil, false)
						return err
					},
					Classify: classifyFleet,
				}
				report := gen.Run(context.Background())
				for _, q := range qs {
					q.Close()
				}
				if iter == b.N-1 {
					ok := report.Class("ok")
					shed := report.Class("shed")
					b.ReportMetric(float64(ok.Latency.Snapshot().P99Ns)/1e6, "p99_ok_ms")
					if shed.Count > 0 {
						b.ReportMetric(float64(shed.Latency.Snapshot().P99Ns)/1e3, "p99_shed_us")
					}
					b.ReportMetric(float64(ok.Count), "ok")
					b.ReportMetric(float64(shed.Count), "shed")
					b.ReportMetric(float64(report.Class("timeout").Count), "timeout")
				}
			}
		})
	}
}

func classifyFleet(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrInfeasible), errors.Is(err, ErrQueueFull), errors.Is(err, ErrNoReplica):
		return "shed"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	default:
		return "error"
	}
}

// BenchmarkFleetAdaptiveBatch A/Bs the replica-level batching policy
// through a real serve.Server: static flush timeout vs the adaptive
// controller, at a sparse and a dense arrival rate. The adaptive win shows
// in p50_ok_us at low load (no idle flush-timeout wait on lone requests);
// at high load ok_per_s must not regress versus static.
func BenchmarkFleetAdaptiveBatch(b *testing.B) {
	const duration = 300 * time.Millisecond
	for _, policy := range []struct {
		name     string
		adaptive bool
	}{{"static", false}, {"adaptive", true}} {
		for _, load := range []struct {
			name string
			rate float64
		}{{"low", 300}, {"high", 5000}} {
			b.Run(policy.name+"/"+load.name, func(b *testing.B) {
				cfg := serve.Config{
					Workers:       2,
					MaxBatch:      4,
					FlushTimeout:  2 * time.Millisecond,
					AdaptiveBatch: policy.adaptive,
				}
				srv := serve.New(cfg)
				srv.RegisterGraph("tiny", tinyModel())
				srv.MarkReady()
				defer srv.Close(context.Background())
				front := New(Config{}, NewLocal("r0", srv))
				feeds := tinyFeeds(1)

				b.ResetTimer()
				for iter := 0; iter < b.N; iter++ {
					gen := &bench.LoadGen{
						Rate:     load.rate,
						Duration: duration,
						Timeout:  time.Second,
						Do: func(ctx context.Context, i int) error {
							_, _, _, err := front.Infer(ctx, "tiny", feeds, false)
							return err
						},
						Classify: classifyFleet,
					}
					report := gen.Run(context.Background())
					if iter == b.N-1 {
						ok := report.Class("ok")
						snap := ok.Latency.Snapshot()
						b.ReportMetric(float64(snap.P50Ns)/1e3, "p50_ok_us")
						b.ReportMetric(float64(snap.P99Ns)/1e3, "p99_ok_us")
						b.ReportMetric(float64(ok.Count)/duration.Seconds(), "ok_per_s")
						b.ReportMetric(float64(report.Offered-ok.Count), "not_ok")
					}
				}
			})
		}
	}
}

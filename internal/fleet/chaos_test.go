package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ramiel "repro"
	"repro/internal/bench"
	"repro/internal/serve"
)

// chaosOwner returns the index of model's ring owner among names, so the
// chaos tests can aim the fault injector at the replica that actually
// takes the traffic. The ring depends only on the name set, never on
// replica state, so this is stable for the lifetime of the test.
func chaosOwner(model string, names []string) int {
	return newRing(names).order(model, nil)[0]
}

// TestChaosSoak is the fault-injection acceptance test: three real
// replicas, the ring owner for the model flapping its health bit and
// injecting transport errors and drops, retries + hedging + breakers all
// armed. Every accepted request must be answered exactly once, and no
// retryable replica failure may reach a client while healthy replicas
// exist.
func TestChaosSoak(t *testing.T) {
	const replicas = 3
	cfg := serve.Config{Workers: 2, MaxBatch: 4, FlushTimeout: 500 * time.Microsecond, AdaptiveBatch: true}
	names := make([]string, replicas)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
	}
	owner := chaosOwner("tiny", names)

	var fi *FaultInjector
	reps := make([]Replica, replicas)
	for i := 0; i < replicas; i++ {
		rep := Replica(NewLocal(names[i], newLocalServer(t, cfg)))
		if i == owner {
			fi = NewFaultInjector(rep, FaultConfig{
				Seed:       1,
				ErrorRate:  0.05,
				DropRate:   0.01,
				FlapPeriod: 120 * time.Millisecond,
				FlapDown:   0.35,
			})
			rep = fi
		}
		reps[i] = rep
	}
	front := New(Config{
		Deadline:         2 * time.Second,
		MaxAttempts:      3,
		HedgeDelay:       25 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	}, reps...)

	want := make([][]float32, 8)
	for b := range want {
		outs, err := ramiel.RunSequentialGraph(tinyModel(), tinyFeeds(float32(b)))
		if err != nil {
			t.Fatal(err)
		}
		want[b] = outs["out"].Data()
	}

	var corrupt atomic.Int64
	var mu sync.Mutex
	answered := map[int]int{}
	gen := &bench.LoadGen{
		Rate:     1200,
		Duration: 400 * time.Millisecond,
		Timeout:  time.Second,
		Do: func(ctx context.Context, i int) error {
			base := i % 8
			outs, _, _, err := front.Infer(ctx, "tiny", tinyFeeds(float32(base)), false)
			if err != nil {
				return err
			}
			mu.Lock()
			answered[i]++
			mu.Unlock()
			for j, w := range want[base] {
				if outs["out"].Data()[j] != w {
					corrupt.Add(1)
					return errors.New("corrupt response")
				}
			}
			return nil
		},
		Classify: classifyFleet,
	}
	report := gen.Run(context.Background())

	if got := report.Completed(); got != report.Offered {
		t.Errorf("completions %d != offered %d — lost or duplicated responses", got, report.Offered)
	}
	for i, n := range answered {
		if n != 1 {
			t.Errorf("arrival %d answered %d times", i, n)
		}
	}
	if n := corrupt.Load(); n != 0 {
		t.Errorf("%d corrupted responses under fault injection", n)
	}
	// The tentpole contract: injected transport failures are the fleet's
	// problem, not the client's. With two healthy replicas always
	// available, zero requests may surface an error.
	if n := report.Class("error").Count; n != 0 {
		t.Errorf("%d client-visible errors despite healthy replicas", n)
	}

	if fi.InjectedErrors() == 0 {
		t.Error("the injector never injected — the soak tested nothing")
	}
	snap := front.SnapshotModel("tiny")
	if snap.Retries == 0 {
		t.Error("no retries recorded against a 5%% injected error rate")
	}
	var shedTotal int64
	for _, n := range snap.Shed {
		shedTotal += n
	}
	if snap.Admitted+shedTotal != snap.Requests {
		t.Errorf("admitted %d + shed %d != requests %d — a request escaped accounting",
			snap.Admitted, shedTotal, snap.Requests)
	}
	if snap.Pending != 0 {
		t.Errorf("pending gauge = %d after the chaos drained, want 0", snap.Pending)
	}
	okP99 := time.Duration(report.Class("ok").Latency.Snapshot().P99Ns)
	if okP99 > gen.Timeout {
		t.Errorf("accepted p99 = %v breached the %v client timeout", okP99, gen.Timeout)
	}
	t.Logf("chaos: offered %d ok %d shed %d timeout %d | injected errs %d drops %d | retries %d (wins %d) hedges %d (wins %d) | ok p99 %v",
		report.Offered, report.Class("ok").Count, report.Class("shed").Count, report.Class("timeout").Count,
		fi.InjectedErrors(), fi.InjectedDrops(), snap.Retries, snap.RetryWins, snap.Hedges, snap.HedgeWins, okP99)
}

// BenchmarkFleetChaos is the fleet's chaos benchmark: queued replicas at capacity with the ring owner injecting errors and
// flapping, retries + hedging + breakers armed. The recorded metrics are
// the failure-handling story in numbers — ok/shed/timeout/error split,
// retry and hedge counts, and the p99 accepted requests experienced while
// a third of the fleet misbehaved.
func BenchmarkFleetChaos(b *testing.B) {
	const (
		service  = 2 * time.Millisecond
		replicas = 3
		rate     = 1200
		duration = 300 * time.Millisecond
		timeout  = 250 * time.Millisecond
	)
	names := make([]string, replicas)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
	}
	owner := chaosOwner("m", names)

	for iter := 0; iter < b.N; iter++ {
		qs := make([]*queuedReplica, replicas)
		reps := make([]Replica, replicas)
		var fi *FaultInjector
		for i := range reps {
			qs[i] = newQueuedReplica(names[i], service)
			reps[i] = qs[i]
			if i == owner {
				fi = NewFaultInjector(qs[i], FaultConfig{
					Seed:       7,
					ErrorRate:  0.05,
					FlapPeriod: 100 * time.Millisecond,
					FlapDown:   0.3,
				})
				reps[i] = fi
			}
		}
		front := New(Config{
			MaxAttempts:      3,
			HedgeDelay:       20 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  50 * time.Millisecond,
		}, reps...)
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
			snap := front.SnapshotModel("m")
			b.ReportMetric(float64(ok.Latency.Snapshot().P99Ns)/1e6, "p99_ok_ms")
			b.ReportMetric(float64(ok.Count), "ok")
			b.ReportMetric(float64(report.Class("shed").Count), "shed")
			b.ReportMetric(float64(report.Class("timeout").Count), "timeout")
			b.ReportMetric(float64(report.Class("error").Count), "errors")
			b.ReportMetric(float64(snap.Retries), "retries")
			b.ReportMetric(float64(snap.Hedges), "hedges")
			b.ReportMetric(float64(fi.InjectedErrors()), "injected_errs")
		}
	}
}

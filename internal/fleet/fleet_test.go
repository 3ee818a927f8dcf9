package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ramiel "repro"
	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// fakeReplica is a controllable in-memory Replica for routing and
// admission tests: readiness, queue depth, reported execution time, and
// blocking are all set by the test.
type fakeReplica struct {
	name    string
	workers int
	exec    time.Duration // reported (and slept) execution time

	healthy  atomic.Bool
	ready    atomic.Bool
	queued   atomic.Int64
	inflight atomic.Int64
	calls    atomic.Int64

	// failNext > 0 makes the next that many Infer calls fail with failErr
	// (default: a retryable TransportError) — replica-death simulation.
	failNext atomic.Int64
	failErr  atomic.Value // error

	block chan struct{} // when non-nil, Infer waits for close (or ctx)
}

func newFake(name string, workers int, exec time.Duration) *fakeReplica {
	f := &fakeReplica{name: name, workers: workers, exec: exec}
	f.healthy.Store(true)
	f.ready.Store(true)
	return f
}

// fail arms the next n Infer calls to return err (nil = retryable
// transport error).
func (f *fakeReplica) fail(n int64, err error) {
	if err != nil {
		f.failErr.Store(err)
	}
	f.failNext.Store(n)
}

func (f *fakeReplica) Name() string              { return f.name }
func (f *fakeReplica) Healthy() bool             { return f.healthy.Load() }
func (f *fakeReplica) Ready() bool               { return f.ready.Load() }
func (f *fakeReplica) Load() (q, inflight int64) { return f.queued.Load(), f.inflight.Load() }
func (f *fakeReplica) Workers() int              { return f.workers }

func (f *fakeReplica) Infer(ctx context.Context, model string, feeds ramiel.Env, noBatch bool) (ramiel.Env, serve.InferMeta, error) {
	f.calls.Add(1)
	f.inflight.Add(1)
	defer f.inflight.Add(-1)
	for {
		n := f.failNext.Load()
		if n <= 0 {
			break
		}
		if f.failNext.CompareAndSwap(n, n-1) {
			if err, _ := f.failErr.Load().(error); err != nil {
				return nil, serve.InferMeta{}, err
			}
			return nil, serve.InferMeta{}, &TransportError{Replica: f.name, Err: ErrInjected}
		}
	}
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
			return nil, serve.InferMeta{}, ctx.Err()
		}
	}
	if f.exec > 0 {
		t := time.NewTimer(f.exec)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, serve.InferMeta{}, ctx.Err()
		}
	}
	return feeds, serve.InferMeta{BatchSize: 1, Exec: f.exec}, nil
}

func TestRoutingAffinity(t *testing.T) {
	fakes := []*fakeReplica{newFake("r0", 2, 0), newFake("r1", 2, 0), newFake("r2", 2, 0)}
	front := New(Config{}, fakes[0], fakes[1], fakes[2])

	var first string
	for i := 0; i < 20; i++ {
		_, _, info, err := front.Infer(context.Background(), "squeezenet", nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if first == "" {
			first = info.Replica
		}
		if info.Replica != first {
			t.Fatalf("request %d routed to %s, earlier ones to %s — affinity broken without load", i, info.Replica, first)
		}
		if info.Spilled {
			t.Fatalf("request %d marked spilled on an idle fleet", i)
		}
	}
	busy := 0
	for _, f := range fakes {
		if f.calls.Load() > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Errorf("%d replicas saw traffic for one model on an idle fleet, want 1", busy)
	}
}

func TestSpilloverOnWatermark(t *testing.T) {
	fakes := []*fakeReplica{newFake("r0", 2, 0), newFake("r1", 2, 0), newFake("r2", 2, 0)}
	front := New(Config{SpillWatermark: 4}, fakes[0], fakes[1], fakes[2])

	_, _, info, err := front.Infer(context.Background(), "m", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	var primary *fakeReplica
	for _, f := range fakes {
		if f.name == info.Replica {
			primary = f
		}
	}
	primary.queued.Store(10) // over the watermark

	_, _, info2, err := front.Infer(context.Background(), "m", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Replica == primary.name {
		t.Fatalf("request stayed on %s with queue depth 10 > watermark 4", primary.name)
	}
	if !info2.Spilled {
		t.Error("RouteInfo.Spilled = false for a spilled request")
	}
	if got := front.SnapshotModel("m").Spills; got != 1 {
		t.Errorf("spills counter = %d, want 1", got)
	}

	// Owner drains; traffic returns home.
	primary.queued.Store(0)
	_, _, info3, err := front.Infer(context.Background(), "m", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if info3.Replica != primary.name || info3.Spilled {
		t.Errorf("after drain routed to %s (spilled %v), want owner %s", info3.Replica, info3.Spilled, primary.name)
	}
}

func TestNoReadyReplica(t *testing.T) {
	f0 := newFake("r0", 2, 0)
	f0.ready.Store(false)
	front := New(Config{}, f0)

	_, _, _, err := front.Infer(context.Background(), "m", nil, false)
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
	if got := front.SnapshotModel("m").Shed["no_replica"]; got != 1 {
		t.Errorf("shed[no_replica] = %d, want 1", got)
	}
	if got, _, _ := serve.ReplyFor(err); got != http.StatusServiceUnavailable {
		t.Errorf("ReplyFor(ErrNoReplica) = %d, want 503", got)
	}
}

func TestAdmissionInfeasibleDeadline(t *testing.T) {
	f := newFake("r0", 1, 20*time.Millisecond)
	front := New(Config{}, f)

	// Warm the execution histogram with real completions.
	for i := 0; i < 3; i++ {
		if _, _, _, err := front.Infer(context.Background(), "m", nil, false); err != nil {
			t.Fatal(err)
		}
	}

	// A 1ms budget cannot fit a p90 of ~20ms: reject, and reject fast.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, _, _, err := front.Infer(ctx, "m", nil, false)
	decision := time.Since(t0)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// The contract is microseconds; allow generous slack for CI schedulers.
	if decision > 50*time.Millisecond {
		t.Errorf("rejection took %v — admission must not queue or execute", decision)
	}
	snap := front.SnapshotModel("m")
	if got := snap.Shed["infeasible"]; got != 1 {
		t.Errorf("shed[infeasible] = %d, want 1", got)
	}
	if snap.Reject == nil || snap.Reject.Count != 1 {
		t.Errorf("reject histogram = %+v, want 1 sample", snap.Reject)
	}
	if got, _, _ := serve.ReplyFor(err); got != http.StatusTooManyRequests {
		t.Errorf("ReplyFor(ErrInfeasible) = %d, want 429", got)
	}
	if calls := f.calls.Load(); calls != 3 {
		t.Errorf("replica saw %d calls, want 3 — the shed request must not reach it", calls)
	}

	// A generous budget stays admissible.
	if _, _, _, err := front.Infer(context.Background(), "m", nil, false); err != nil {
		t.Fatalf("feasible request rejected: %v", err)
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	f := newFake("r0", 1, 0)
	f.block = make(chan struct{})
	front := New(Config{MaxPending: 1}, f)

	done := make(chan error, 1)
	go func() {
		_, _, _, err := front.Infer(context.Background(), "m", nil, false)
		done <- err
	}()
	// Wait for the first request to occupy the pending window.
	for i := 0; front.SnapshotModel("m").Pending == 0; i++ {
		if i > 1000 {
			t.Fatal("first request never became pending")
		}
		time.Sleep(time.Millisecond)
	}

	_, _, _, err := front.Infer(context.Background(), "m", nil, false)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := front.SnapshotModel("m").Shed["queue_full"]; got != 1 {
		t.Errorf("shed[queue_full] = %d, want 1", got)
	}
	if got, _, _ := serve.ReplyFor(err); got != http.StatusTooManyRequests {
		t.Errorf("ReplyFor(ErrQueueFull) = %d, want 429", got)
	}

	close(f.block)
	if err := <-done; err != nil {
		t.Fatalf("blocked request failed after unblock: %v", err)
	}
	if got := front.SnapshotModel("m").Pending; got != 0 {
		t.Errorf("pending gauge = %d after completion, want 0", got)
	}
}

func TestNoAdmissionPassesEverything(t *testing.T) {
	f := newFake("r0", 1, 5*time.Millisecond)
	front := New(Config{NoAdmission: true, MaxPending: 1}, f)
	for i := 0; i < 3; i++ {
		if _, _, _, err := front.Infer(context.Background(), "m", nil, false); err != nil {
			t.Fatal(err)
		}
	}
	// Even an impossible deadline is admitted (and then times out inside
	// the replica) — that is the baseline admission control improves on.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, _, _, err := front.Infer(ctx, "m", nil, false)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded (request must reach the replica)", err)
	}
	if shed := front.SnapshotModel("m").Shed; len(shed) != 0 {
		t.Errorf("shed counters %v with admission off, want none", shed)
	}
}

func TestFrontDrainFlipsReadyz(t *testing.T) {
	f := newFake("r0", 1, 0)
	front := New(Config{}, f)
	h := front.Handler()

	get := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz before drain = %d, want 200", got)
	}
	front.BeginDrain()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200 (drain is not death)", got)
	}
}

// tinyModel mirrors the serve package's test graph: x -> Relu ->
// {Sigmoid, Neg} -> Add -> out.
func tinyModel() *ramiel.Graph {
	g := graph.New("tiny")
	g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{4}}}
	g.AddNode("r", "Relu", []string{"x"}, []string{"vr"}, nil)
	g.AddNode("s", "Sigmoid", []string{"vr"}, []string{"vs"}, nil)
	g.AddNode("n", "Neg", []string{"vr"}, []string{"vn"}, nil)
	g.AddNode("a", "Add", []string{"vs", "vn"}, []string{"out"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	return g
}

func tinyFeeds(base float32) ramiel.Env {
	return ramiel.Env{"x": ramiel.NewTensor(ramiel.NewShape(4),
		[]float32{base, base + 1, base + 2, base + 3})}
}

func newLocalServer(t testing.TB, cfg serve.Config) *serve.Server {
	t.Helper()
	srv := serve.New(cfg)
	srv.RegisterGraph("tiny", tinyModel())
	srv.MarkReady()
	t.Cleanup(func() { _ = srv.Close(context.Background()) })
	return srv
}

func TestRemoteReplicaRoundTrip(t *testing.T) {
	srv := newLocalServer(t, serve.Config{Workers: 2, MaxBatch: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rem := NewRemote("r0", ts.URL+"/") // trailing slash must be tolerated
	if err := rem.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !rem.Healthy() || !rem.Ready() {
		t.Fatalf("after probe healthy=%v ready=%v, want true/true", rem.Healthy(), rem.Ready())
	}
	if rem.Workers() < 1 {
		t.Errorf("probed workers = %d, want >= 1", rem.Workers())
	}

	front := New(Config{}, rem)
	feeds := tinyFeeds(-1)
	want, err := ramiel.RunSequentialGraph(tinyModel(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	outs, meta, info, err := front.Infer(context.Background(), "tiny", feeds, false)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replica != "r0" {
		t.Errorf("routed to %q, want r0", info.Replica)
	}
	if meta.RequestID == 0 {
		t.Error("remote meta lost the request id")
	}
	got, ok := outs["out"]
	if !ok {
		t.Fatalf("outputs %v missing \"out\"", outs)
	}
	for i, w := range want["out"].Data() {
		if g := got.Data()[i]; g != w {
			t.Fatalf("out[%d] = %g over HTTP, want %g", i, g, w)
		}
	}

	// Unknown model: the daemon's 404 + cause must survive the hop.
	_, _, _, err = front.Infer(context.Background(), "nope", feeds, false)
	var re *serve.Refusal
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *serve.Refusal", err, err)
	}
	if re.Status != http.StatusNotFound {
		t.Errorf("replica error status = %d, want 404", re.Status)
	}
	if got, _, _ := serve.ReplyFor(err); got != http.StatusNotFound {
		t.Errorf("ReplyFor passes %d, want the replica's 404", got)
	}
}

func TestRemoteProbeFailureMarksUnhealthy(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	rem := NewRemote("r0", ts.URL)
	if err := rem.Probe(context.Background()); err == nil {
		t.Fatal("probe of a 500 endpoint reported success")
	}
	if rem.Healthy() || rem.Ready() {
		t.Errorf("after failed probe healthy=%v ready=%v, want false/false", rem.Healthy(), rem.Ready())
	}
	ts.Close()
	if err := rem.Probe(context.Background()); err == nil {
		t.Fatal("probe of a dead endpoint reported success")
	}
}

// TestFleetSoak is the accounting test the CI race step runs: an open-loop
// generator over N in-process replicas, asserting that every offered
// request is answered exactly once (no lost, no duplicated, no corrupted
// responses) and that the front's shed-vs-timeout accounting adds up.
func TestFleetSoak(t *testing.T) {
	const replicas = 3
	cfg := serve.Config{Workers: 2, MaxBatch: 4, FlushTimeout: 500 * time.Microsecond, AdaptiveBatch: true}
	reps := make([]Replica, replicas)
	for i := 0; i < replicas; i++ {
		reps[i] = NewLocal(fmt.Sprintf("r%d", i), newLocalServer(t, cfg))
	}
	front := New(Config{Deadline: 2 * time.Second}, reps...)

	// Precompute expected outputs for the 8 distinct feed bases.
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
	answered := map[int]int{} // arrival index -> responses seen
	gen := &bench.LoadGen{
		Rate:     1500,
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
		Classify: func(err error) string {
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
		},
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
		t.Errorf("%d corrupted responses (batch lanes crossed?)", n)
	}
	if n := report.Class("error").Count; n != 0 {
		t.Errorf("%d unexpected errors during soak", n)
	}

	snap := front.SnapshotModel("tiny")
	if snap.Requests != report.Offered {
		t.Errorf("front saw %d requests, generator offered %d", snap.Requests, report.Offered)
	}
	var shedTotal int64
	for _, n := range snap.Shed {
		shedTotal += n
	}
	if snap.Admitted+shedTotal != snap.Requests {
		t.Errorf("admitted %d + shed %d != requests %d — a request escaped accounting",
			snap.Admitted, shedTotal, snap.Requests)
	}
	if shedTotal != report.Class("shed").Count {
		t.Errorf("front shed %d, generator observed %d", shedTotal, report.Class("shed").Count)
	}
	if snap.Pending != 0 {
		t.Errorf("pending gauge = %d after the soak drained, want 0", snap.Pending)
	}
	t.Logf("soak: offered %d ok %d shed %d timeout %d (spills %d)",
		report.Offered, report.Class("ok").Count, report.Class("shed").Count,
		report.Class("timeout").Count, snap.Spills)
}

func TestFrontHTTPInfer(t *testing.T) {
	srv := newLocalServer(t, serve.Config{Workers: 2, MaxBatch: 1})
	front := New(Config{}, NewLocal("r0", srv))
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()

	body := `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[-1,0,1,2]}}}`
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Fleet-Replica"); got != "r0" {
		t.Errorf("X-Fleet-Replica = %q, want r0", got)
	}

	// Shed surface: an unknown model is a replica-side 404, not a fleet 5xx.
	resp2, err := http.Post(ts.URL+"/v1/infer", "application/json",
		strings.NewReader(`{"model":"nope","inputs":{"x":{"shape":[1],"data":[1]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model status = %d, want 404", resp2.StatusCode)
	}
}

package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	ramiel "repro"
	"repro/internal/obs"
)

func TestInferRecordsStageHistograms(t *testing.T) {
	s := New(Config{Workers: 2, MaxBatch: 1})
	defer s.Close(context.Background())
	s.RegisterGraph("tiny", tinyModel())

	const reqs = 5
	for i := 0; i < reqs; i++ {
		if _, _, err := s.Infer(context.Background(), "tiny", tinyFeeds(float32(i)), false); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.modelStats("tiny").Snapshot()
	for _, stage := range []obs.Stage{obs.StageQueue, obs.StageExec, obs.StageE2E} {
		h, ok := snap.Stages[stage.String()]
		if !ok {
			t.Fatalf("stage %q missing from snapshot %v", stage, snap.Stages)
		}
		if h.Count != reqs {
			t.Errorf("stage %q count = %d, want %d", stage, h.Count, reqs)
		}
		if h.P50Ns <= 0 && stage == obs.StageE2E {
			t.Errorf("stage %q p50 = %d, want > 0", stage, h.P50Ns)
		}
	}
	// Unbatched path never waits for companions.
	if _, ok := snap.Stages[obs.StageAssembly.String()]; ok {
		t.Error("batch_assembly recorded on the unbatched path")
	}
	// e2e covers queue + exec for every request.
	e2e, exec := snap.Stages["e2e"], snap.Stages["execute"]
	if e2e.SumNs < exec.SumNs {
		t.Errorf("e2e sum %d < exec sum %d", e2e.SumNs, exec.SumNs)
	}
}

func TestInferMetaCarriesStagesAndID(t *testing.T) {
	s := New(Config{Workers: 2, MaxBatch: 1})
	defer s.Close(context.Background())
	s.RegisterGraph("tiny", tinyModel())

	_, m1, err := s.Infer(context.Background(), "tiny", tinyFeeds(0), false)
	if err != nil {
		t.Fatal(err)
	}
	_, m2, err := s.Infer(context.Background(), "tiny", tinyFeeds(1), false)
	if err != nil {
		t.Fatal(err)
	}
	if m1.RequestID == 0 || m2.RequestID != m1.RequestID+1 {
		t.Errorf("request IDs = %d, %d; want consecutive non-zero", m1.RequestID, m2.RequestID)
	}
	if m1.Exec <= 0 {
		t.Errorf("Exec = %v, want > 0", m1.Exec)
	}
	if m1.Latency < m1.Exec {
		t.Errorf("Latency %v < Exec %v", m1.Latency, m1.Exec)
	}
}

func TestBatchedInferRecordsAssembly(t *testing.T) {
	s := New(Config{Workers: 2, MaxBatch: 4, FlushTimeout: 5 * time.Millisecond})
	defer s.Close(context.Background())
	s.RegisterGraph("tiny", tinyModel())

	// A solo request on the batched path waits out the flush window, so the
	// assembly stage must be recorded and roughly the window length.
	if _, _, err := s.Infer(context.Background(), "tiny", tinyFeeds(0), false); err != nil {
		t.Fatal(err)
	}
	snap := s.modelStats("tiny").Snapshot()
	h, ok := snap.Stages[obs.StageAssembly.String()]
	if !ok {
		t.Fatalf("batch_assembly missing from %v", snap.Stages)
	}
	if h.Count != 1 {
		t.Errorf("assembly count = %d, want 1", h.Count)
	}
	if h.MaxNs < int64(2*time.Millisecond) {
		t.Errorf("assembly max = %v, want >= ~flush window", time.Duration(h.MaxNs))
	}
}

func TestErrorCauseCounters(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 1})
	defer s.Close(context.Background())
	s.RegisterGraph("tiny", tinyModel())

	// Validation failure: feed the wrong input name.
	bad := ramiel.Env{"nope": tinyFeeds(0)["x"]}
	if _, _, err := s.Infer(context.Background(), "tiny", bad, false); !errors.Is(err, ramiel.ErrInvalidFeeds) {
		t.Fatalf("bad feeds error = %v, want ErrInvalidFeeds", err)
	}
	// Canceled client: counted under its label, excluded from Errors.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Infer(ctx, "tiny", tinyFeeds(0), false); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled error = %v, want context.Canceled", err)
	}
	snap := s.modelStats("tiny").Snapshot()
	if snap.ErrorsByCause["validation"] != 1 {
		t.Errorf("validation errors = %d, want 1 (%v)", snap.ErrorsByCause["validation"], snap.ErrorsByCause)
	}
	if snap.ErrorsByCause["canceled"] != 1 {
		t.Errorf("canceled errors = %d, want 1 (%v)", snap.ErrorsByCause["canceled"], snap.ErrorsByCause)
	}
	if snap.Errors != 1 {
		t.Errorf("Errors = %d, want 1 (canceled excluded)", snap.Errors)
	}
}

func TestCauseOfClassification(t *testing.T) {
	cases := []struct {
		err  error
		want ErrorCause
	}{
		{nil, CauseNone},
		{context.Canceled, CauseCanceled},
		{context.DeadlineExceeded, CauseDeadline},
		{ramiel.ErrInvalidFeeds, CauseValidation},
		{ErrCompile, CauseCompile},
		{ErrShutdown, CauseShutdown},
		{ErrBatcherClosed, CauseShutdown},
		{errors.New("kernel exploded"), CauseExecution},
	}
	for _, tc := range cases {
		if got := causeOf(tc.err); got != tc.want {
			t.Errorf("causeOf(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
	if CauseValidation.String() != "validation" || CauseNone.String() != "" {
		t.Error("cause labels changed")
	}
}

func TestTraceRingCapturesRequests(t *testing.T) {
	s := New(Config{Workers: 2, MaxBatch: 1, SlowThreshold: time.Nanosecond})
	defer s.Close(context.Background())
	s.RegisterGraph("tiny", tinyModel())

	for i := 0; i < 3; i++ {
		if _, _, err := s.Infer(context.Background(), "tiny", tinyFeeds(float32(i)), false); err != nil {
			t.Fatal(err)
		}
	}
	spans := s.Traces(0)
	if len(spans) != 3 {
		t.Fatalf("Traces = %d spans, want 3", len(spans))
	}
	for i, sp := range spans {
		if sp.Model != "tiny" || sp.TotalNs <= 0 || sp.Cause != "" {
			t.Errorf("span %d = %+v", i, sp)
		}
		if i > 0 && spans[i-1].ID <= sp.ID {
			t.Errorf("spans not newest-first: %d then %d", spans[i-1].ID, sp.ID)
		}
	}
	// Every request beats the 1ns slow threshold, so the slow ring mirrors.
	if slow := s.SlowTraces(0); len(slow) != 3 {
		t.Errorf("SlowTraces = %d spans, want 3", len(slow))
	}
	// Failed requests carry cause + error text.
	bad := ramiel.Env{"nope": tinyFeeds(0)["x"]}
	_, _, _ = s.Infer(context.Background(), "tiny", bad, false)
	spans = s.Traces(1)
	if len(spans) != 1 || spans[0].Cause != "validation" || spans[0].Error == "" {
		t.Errorf("failed span = %+v, want cause=validation with error text", spans)
	}
}

func TestReadyz(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 1, MaxBatch: 1}, "squeezenet")

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz before Warm = %d, want 503", resp.StatusCode)
	}
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after Warm = %d, want 200", resp.StatusCode)
	}
	// /healthz is liveness and was 200 all along.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", resp.StatusCode)
	}
}

func TestTraceEndpoint(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 2, MaxBatch: 1}, "squeezenet")
	feeds, err := s.RandomFeeds("squeezenet", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Infer(context.Background(), "squeezenet", feeds, true); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/trace?n=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/trace = %d", resp.StatusCode)
	}
	var body struct {
		Slow  bool       `json:"slow"`
		Spans []obs.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Slow || len(body.Spans) != 1 {
		t.Fatalf("trace body = %+v, want 1 recent span", body)
	}
	if sp := body.Spans[0]; sp.Model != "squeezenet" || sp.TotalNs <= 0 || sp.ExecNs <= 0 {
		t.Errorf("span = %+v", sp)
	}

	// Bad n is a 400; the slow ring is empty (threshold defaults to 100ms).
	resp, err = http.Get(ts.URL + "/v1/trace?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n = %d, want 400", resp.StatusCode)
	}
}

func TestInferResponseCarriesRequestID(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1, MaxBatch: 1}, "squeezenet")
	body := bytes.NewBufferString(`{"model":"squeezenet","seed":1,"no_batch":true}`)
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("missing X-Request-ID header")
	}
	var ir InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.RequestID == 0 {
		t.Error("response request_id is zero")
	}
	if ir.ExecUs <= 0 || ir.LatencyUs < ir.ExecUs {
		t.Errorf("stage fields: latency %dus, exec %dus", ir.LatencyUs, ir.ExecUs)
	}
}

func TestErrorResponseCarriesCause(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1, MaxBatch: 1}, "squeezenet")
	// Unknown model via the API: 404, no cause needed. Infer-layer cause
	// shows on a dispatched failure; force validation via raw Infer on a
	// mis-shaped feed is covered elsewhere, here check a 404 decodes.
	body := bytes.NewBufferString(`{"model":"nope","seed":1}`)
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model = %d, want 404", resp.StatusCode)
	}

	// A mis-shaped feed rejected by the HTTP signature check is a 400
	// whose body carries cause=validation, and it counts on the model's
	// errors_by_cause exactly like a feed failure inside Session.Run.
	body = bytes.NewBufferString(`{"model":"squeezenet","inputs":{"input":{"shape":[1,2],"data":[1,2]}}}`)
	resp2, err := http.Post(ts.URL+"/v1/infer", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("mis-shaped feed = %d, want 400", resp2.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp2.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Cause != "validation" {
		t.Errorf("error cause = %q, want %q (error: %s)", er.Cause, "validation", er.Error)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 2, MaxBatch: 1}, "squeezenet")
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	feeds, err := s.RandomFeeds("squeezenet", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := s.Infer(context.Background(), "squeezenet", feeds, true); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	for _, want := range []string{
		"ramield_ready 1",
		`ramield_requests_total{model="squeezenet"} 3`,
		`ramield_stage_duration_seconds_bucket{model="squeezenet",stage="e2e",le="+Inf"} 3`,
		`ramield_stage_duration_seconds_count{model="squeezenet",stage="e2e"} 3`,
		`ramield_stage_duration_seconds_count{model="squeezenet",stage="execute"} 3`,
		`ramield_op_invocations_total{model="squeezenet",op="Conv"}`,
		`ramield_op_seconds_total{model="squeezenet",op="Conv"}`,
		"ramield_compiles_total",
		"ramield_pool_workers 2",
		"# TYPE ramield_stage_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The histogram's cumulative bucket counts must be non-decreasing and
	// end at _count.
	var last int64 = -1
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `ramield_stage_duration_seconds_bucket{model="squeezenet",stage="e2e"`) {
			continue
		}
		var v int64
		if _, err := fmtSscanLast(line, &v); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket counts decreased: %d after %d in %q", v, last, line)
		}
		last = v
	}
	if last != 3 {
		t.Errorf("final cumulative bucket = %d, want 3", last)
	}
}

// fmtSscanLast parses the final whitespace-separated field of a metrics
// line as an int64.
func fmtSscanLast(line string, v *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	n, err := parseInt64(line[i+1:])
	*v = n
	return 1, err
}

func parseInt64(s string) (int64, error) {
	var n int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errors.New("not a number: " + s)
		}
		n = n*10 + int64(c-'0')
	}
	return n, nil
}

func TestStatsIncludesOpsAndStages(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 2, MaxBatch: 1}, "squeezenet")
	feeds, err := s.RandomFeeds("squeezenet", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Infer(context.Background(), "squeezenet", feeds, true); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	ops, ok := body.Ops["squeezenet"]
	if !ok || len(ops) == 0 {
		t.Fatalf("stats ops = %+v, want squeezenet table", body.Ops)
	}
	if ops[0].Op == "" || ops[0].Count <= 0 || ops[0].TotalNs <= 0 {
		t.Errorf("top op = %+v", ops[0])
	}
	// Sorted by cumulative time descending.
	for i := 1; i < len(ops); i++ {
		if ops[i].TotalNs > ops[i-1].TotalNs {
			t.Errorf("ops not sorted: %d after %d", ops[i].TotalNs, ops[i-1].TotalNs)
		}
	}
	m := body.Models["squeezenet"]
	if m.Stages["e2e"].Count != 1 {
		t.Errorf("stats stages = %+v, want e2e count 1", m.Stages)
	}
}

// maxInferAllocs is the allocation count of one steady-state unbatched
// request to the tiny model, telemetry (stage histograms, trace rings)
// included: the serving hot path's whole per-request budget. Under the race
// detector sync.Pool drops pooled sessions at random, and a request that
// builds a fresh session allocates more: maxInferAllocsRace is the count
// measured there (39) plus two.
const (
	maxInferAllocs     = 38
	maxInferAllocsRace = 41
)

// TestInferZeroExtraAllocs pins the serving hot path's allocations per
// request, with the always-on telemetry recording every request.
func TestInferZeroExtraAllocs(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 1})
	defer s.Close(context.Background())
	s.RegisterGraph("tiny", tinyModel())
	feeds := tinyFeeds(1)
	ctx := context.Background()
	// Warm: compile, session pool, arena steady state.
	for i := 0; i < 8; i++ {
		if _, _, err := s.Infer(ctx, "tiny", feeds, true); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := s.Infer(ctx, "tiny", feeds, true); err != nil {
			t.Fatal(err)
		}
	})
	bound := float64(maxInferAllocs)
	if raceEnabled {
		bound = maxInferAllocsRace
	}
	if allocs > bound {
		t.Errorf("request allocates %.1f times, want <= %.0f", allocs, bound)
	}
	t.Logf("allocs/request: %.1f (bound %.0f)", allocs, bound)
	if snap := s.modelStats("tiny").Snapshot(); snap.Stages == nil || len(s.Traces(1)) != 1 {
		t.Error("measured requests left no stage samples or trace spans")
	}
}

// TestServeObsConcurrentHammer drives many concurrent inferences while
// readers poll stats, traces, and metrics — the serve-layer race proof.
func TestServeObsConcurrentHammer(t *testing.T) {
	s := New(Config{Workers: 4, MaxBatch: 4, FlushTimeout: 500 * time.Microsecond, SlowThreshold: time.Nanosecond})
	defer s.Close(context.Background())
	s.RegisterGraph("tiny", tinyModel())

	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.modelStats("tiny").Snapshot()
				_ = s.Traces(8)
				_ = s.SlowTraces(8)
				var buf bytes.Buffer
				w := bufio.NewWriter(&buf)
				s.writeMetrics(w)
				w.Flush()
			}
		}
	}()
	var wg errgroup
	const goroutines = 8
	const perG = 25
	for g := 0; g < goroutines; g++ {
		wg.Go(func() error {
			ctx := context.Background()
			for i := 0; i < perG; i++ {
				if _, _, err := s.Infer(ctx, "tiny", tinyFeeds(float32(i)), false); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := wg.Wait(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	snap := s.modelStats("tiny").Snapshot()
	if want := int64(goroutines * perG); snap.Requests != want {
		t.Errorf("Requests = %d, want %d", snap.Requests, want)
	}
	if snap.Stages["e2e"].Count != int64(goroutines*perG) {
		t.Errorf("e2e count = %d, want %d", snap.Stages["e2e"].Count, goroutines*perG)
	}
}

// errgroup is a minimal golang.org/x/sync/errgroup stand-in (no external
// deps): first error wins.
type errgroup struct {
	wg   chan struct{}
	errc chan error
	n    int
}

func (g *errgroup) Go(fn func() error) {
	if g.errc == nil {
		g.errc = make(chan error, 64)
	}
	g.n++
	go func() { g.errc <- fn() }()
}

func (g *errgroup) Wait() error {
	var first error
	for i := 0; i < g.n; i++ {
		if err := <-g.errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

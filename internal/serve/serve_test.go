package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	ramiel "repro"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// tinyModel builds a four-node graph with two parallel branches, the
// smallest topology that exercises cross-lane messaging:
// x -> Relu -> {Sigmoid, Neg} -> Add -> out.
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

func TestRegistryCompileOnceUnderContention(t *testing.T) {
	reg := NewRegistry(ramiel.Options{}, false)
	var builds atomic.Int64
	g := tinyModel()
	reg.Register("tiny", func() (*ramiel.Graph, error) {
		builds.Add(1)
		return g, nil
	})

	const waiters = 32
	var wg sync.WaitGroup
	progs := make([]*ramiel.Program, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := reg.Program("tiny", 1)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Errorf("graph built %d times, want 1", n)
	}
	st := reg.Stats()
	if st.Compiles != 1 {
		t.Errorf("compiles = %d, want 1 (singleflight dedup)", st.Compiles)
	}
	if st.CacheMisses != 1 || st.CacheHits != waiters-1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", st.CacheHits, st.CacheMisses, waiters-1)
	}
	for i := 1; i < waiters; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("waiter %d got a different program instance", i)
		}
	}
}

func TestRegistryBatchVariants(t *testing.T) {
	reg := NewRegistry(ramiel.Options{}, false)
	reg.RegisterGraph("tiny", tinyModel())
	p1, err := reg.Program("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := reg.Program("tiny", 4)
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Fatal("batch-4 program is the batch-1 program")
	}
	if got := len(p4.Inputs()); got != 4 {
		t.Errorf("batch-4 program has %d inputs, want 4 sample replicas", got)
	}
	if got := reg.CachedBatches("tiny"); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Errorf("CachedBatches = %v, want [1 4]", got)
	}
	if _, err := reg.Program("nope", 1); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("unknown model error = %v, want ErrNotRegistered", err)
	}
}

func TestServerInferMatchesSequential(t *testing.T) {
	s := New(Config{Workers: 4, MaxBatch: 1})
	defer s.Close(context.Background())
	g := tinyModel()
	s.RegisterGraph("tiny", g)

	feeds := tinyFeeds(-1)
	want, err := ramiel.RunSequentialGraph(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	outs, meta, err := s.Infer(context.Background(), "tiny", feeds, false)
	if err != nil {
		t.Fatal(err)
	}
	if meta.BatchSize != 1 {
		t.Errorf("BatchSize = %d, want 1", meta.BatchSize)
	}
	if !outs["out"].Equal(want["out"]) {
		t.Error("served output differs from sequential reference")
	}
}

// TestReRegisterReleasesPrograms: re-registering a model drops its compiled
// programs from the cache, and nothing else the server keeps — the warm
// session pool above all, whose sessions hold the program, its prepacked
// weights and their arenas — may keep a dropped program reachable.
func TestReRegisterReleasesPrograms(t *testing.T) {
	s := New(Config{Workers: 2, MaxBatch: 1})
	defer s.Close(context.Background())
	var served []weak.Pointer[ramiel.Program]
	for i := 0; i < 5; i++ {
		s.RegisterGraph("tiny", tinyModel())
		if _, _, err := s.Infer(context.Background(), "tiny", tinyFeeds(1), false); err != nil {
			t.Fatal(err)
		}
		served = append(served, weak.Make(s.Registry().Peek("tiny", 1)))
	}
	// A sync.Pool keeps what it holds through one more collection (its
	// victim cache), so collect until that has passed.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	live := 0
	for _, w := range served {
		if w.Value() != nil {
			live++
		}
	}
	if live != 1 {
		t.Errorf("%d of %d served programs (and their session pools) still reachable, want 1", live, len(served))
	}
}

func TestMicroBatchCoalescesThroughHypercluster(t *testing.T) {
	const batch = 4
	// FlushTimeout far beyond the test runtime: only the size trigger can
	// flush, so a full window proves coalescing (not timer luck).
	s := New(Config{Workers: 4, MaxBatch: batch, FlushTimeout: 10 * time.Second})
	defer s.Close(context.Background())
	g := tinyModel()
	s.RegisterGraph("tiny", g)

	var wg sync.WaitGroup
	outs := make([]ramiel.Env, batch)
	metas := make([]InferMeta, batch)
	errs := make([]error, batch)
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], metas[i], errs[i] = s.Infer(context.Background(), "tiny", tinyFeeds(float32(i)), false)
		}(i)
	}
	wg.Wait()

	for i := 0; i < batch; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if metas[i].BatchSize != batch {
			t.Errorf("request %d served at batch %d, want %d", i, metas[i].BatchSize, batch)
		}
		want, err := ramiel.RunSequentialGraph(g, tinyFeeds(float32(i)))
		if err != nil {
			t.Fatal(err)
		}
		if !outs[i]["out"].Equal(want["out"]) {
			t.Errorf("request %d: batched output differs from its sequential reference", i)
		}
	}
	// The batch must have gone through the hyperclustered batch-4 plan.
	found := false
	for _, b := range s.Registry().CachedBatches("tiny") {
		if b == batch {
			found = true
		}
	}
	if !found {
		t.Errorf("no batch-%d program cached; batch was not routed through a hypercluster", batch)
	}
	st := s.modelStats("tiny").Snapshot()
	if st.Batched != batch {
		t.Errorf("Batched = %d, want %d", st.Batched, batch)
	}
	if st.MaxBatchSeen != batch {
		t.Errorf("MaxBatchSeen = %d, want %d", st.MaxBatchSeen, batch)
	}
}

func TestMicroBatchFlushByTimeout(t *testing.T) {
	const flush = 30 * time.Millisecond
	// A window of 8 never fills: the lone request must be released by the
	// flush timer, falling back to the batch-1 plan.
	s := New(Config{Workers: 2, MaxBatch: 8, FlushTimeout: flush})
	defer s.Close(context.Background())
	s.RegisterGraph("tiny", tinyModel())

	start := time.Now()
	outs, meta, err := s.Infer(context.Background(), "tiny", tinyFeeds(1), false)
	if err != nil {
		t.Fatal(err)
	}
	if outs["out"] == nil {
		t.Fatal("no output")
	}
	if meta.BatchSize != 1 {
		t.Errorf("BatchSize = %d, want 1 (low-load fallback)", meta.BatchSize)
	}
	if waited := time.Since(start); waited < flush {
		t.Errorf("request returned in %v, before the %v flush timer", waited, flush)
	}
	st := s.modelStats("tiny").Snapshot()
	if st.Flushes != 1 || st.FlushedSamples != 1 {
		t.Errorf("flushes/samples = %d/%d, want 1/1", st.Flushes, st.FlushedSamples)
	}
}

func TestServerConcurrentMixedLoad(t *testing.T) {
	s := New(Config{Workers: 4, MaxBatch: 3, FlushTimeout: time.Millisecond})
	defer s.Close(context.Background())
	g := tinyModel()
	s.RegisterGraph("tiny", g)

	const goroutines, iters = 8, 10
	// Sequential references computed up front: RunSequentialGraph on a
	// shared *Graph is not safe to call concurrently (lazy index build);
	// the concurrent-serving contract covers compiled Plans only.
	want := make([]ramiel.Env, goroutines*iters)
	for k := range want {
		ref, err := ramiel.RunSequentialGraph(g, tinyFeeds(float32(k)))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = ref
	}
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				k := i*iters + j
				outs, _, err := s.Infer(context.Background(), "tiny", tinyFeeds(float32(k)), i%2 == 0)
				if err != nil {
					t.Error(err)
					return
				}
				if !outs["out"].Equal(want[k]["out"]) {
					t.Error("output differs from sequential reference")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st := s.modelStats("tiny").Snapshot()
	if st.Requests != goroutines*iters {
		t.Errorf("Requests = %d, want %d", st.Requests, goroutines*iters)
	}
	if st.Errors != 0 {
		t.Errorf("Errors = %d, want 0", st.Errors)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	s := New(Config{Workers: 2, MaxBatch: 2, FlushTimeout: time.Millisecond})
	s.RegisterGraph("tiny", tinyModel())
	if _, _, err := s.Infer(context.Background(), "tiny", tinyFeeds(0), false); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := s.Infer(context.Background(), "tiny", tinyFeeds(0), false); err == nil {
		t.Error("Infer after Close succeeded")
	}
}

func TestPoolBoundsInFlight(t *testing.T) {
	const workers = 3
	p := NewPool(workers, 64)
	defer p.Close(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := p.Do(context.Background(), func(context.Context) (ramiel.Env, error) {
				time.Sleep(2 * time.Millisecond)
				return nil, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if peak := p.PeakInFlight(); peak > workers {
		t.Errorf("peak in-flight %d exceeds %d workers", peak, workers)
	}
}

func TestPoolHonorsDeadline(t *testing.T) {
	p := NewPool(1, 0)
	defer p.Close(context.Background())
	block := make(chan struct{})
	go p.Do(context.Background(), func(context.Context) (ramiel.Env, error) {
		<-block
		return nil, nil
	})
	time.Sleep(5 * time.Millisecond) // let the blocker occupy the worker
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := p.Do(ctx, func(context.Context) (ramiel.Env, error) { return nil, nil })
	close(block)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

// --- HTTP API ---

func newHTTPServer(t *testing.T, cfg Config, zoo ...string) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if err := s.RegisterZoo(ramiel.ModelConfig{ImageSize: 16}, zoo...); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close(context.Background())
	})
	return s, ts
}

func postInfer(t *testing.T, url string, req InferRequest) (*http.Response, InferResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out InferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestHTTPInferTwoModelsConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles two zoo models")
	}
	models := []string{"squeezenet", "googlenet"}
	_, ts := newHTTPServer(t, Config{Workers: 4, MaxBatch: 2, FlushTimeout: time.Millisecond}, models...)

	var wg sync.WaitGroup
	for _, model := range models {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(model string, seed uint64) {
				defer wg.Done()
				resp, out := postInfer(t, ts.URL, InferRequest{Model: model, Seed: &seed})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d", model, resp.StatusCode)
					return
				}
				if len(out.Outputs) == 0 {
					t.Errorf("%s: no outputs", model)
				}
				if out.BatchSize < 1 {
					t.Errorf("%s: batch size %d", model, out.BatchSize)
				}
			}(model, uint64(i+1))
		}
	}
	wg.Wait()

	// /v1/models reflects both registered models and their cached plans.
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Models []modelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != len(models) {
		t.Fatalf("/v1/models lists %d models, want %d", len(list.Models), len(models))
	}
	for _, mi := range list.Models {
		if mi.Stats.Requests == 0 {
			t.Errorf("%s: no requests counted", mi.Name)
		}
		if len(mi.CachedBatches) == 0 {
			t.Errorf("%s: no cached programs after serving", mi.Name)
		}
	}

	// /v1/stats aggregates registry and pool counters.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Registry.Compiles == 0 {
		t.Error("stats report zero compiles")
	}
	if len(stats.Models) != len(models) {
		t.Errorf("stats cover %d models, want %d", len(stats.Models), len(models))
	}
}

func TestHTTPInferExplicitInputs(t *testing.T) {
	s := New(Config{Workers: 2, MaxBatch: 1})
	g := tinyModel()
	s.RegisterGraph("tiny", g)
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close(context.Background())
	}()

	resp, out := postInfer(t, ts.URL, InferRequest{
		Model:  "tiny",
		Inputs: map[string]TensorJSON{"x": {Shape: []int{4}, Data: []float32{-1, 0, 1, 2}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want, err := ramiel.RunSequentialGraph(g, tinyFeeds(-1))
	if err != nil {
		t.Fatal(err)
	}
	got := out.Outputs["out"]
	for i, v := range want["out"].Data() {
		if got.Data[i] != v {
			t.Fatalf("output[%d] = %v, want %v", i, got.Data[i], v)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 1})
	s.RegisterGraph("tiny", tinyModel())
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close(context.Background())
	}()

	seed := uint64(1)
	cases := []struct {
		name string
		req  InferRequest
		code int
	}{
		{"unknown model", InferRequest{Model: "nope", Seed: &seed}, http.StatusNotFound},
		{"missing model", InferRequest{Seed: &seed}, http.StatusBadRequest},
		{"no inputs", InferRequest{Model: "tiny"}, http.StatusBadRequest},
		{"bad shape", InferRequest{Model: "tiny",
			Inputs: map[string]TensorJSON{"x": {Shape: []int{3}, Data: []float32{1, 2}}}},
			http.StatusBadRequest},
		{"wrong input name", InferRequest{Model: "tiny",
			Inputs: map[string]TensorJSON{"y": {Shape: []int{4}, Data: []float32{1, 2, 3, 4}}}},
			http.StatusBadRequest},
		{"declared shape mismatch", InferRequest{Model: "tiny",
			Inputs: map[string]TensorJSON{"x": {Shape: []int{2}, Data: []float32{1, 2}}}},
			http.StatusBadRequest},
		{"extra input", InferRequest{Model: "tiny",
			Inputs: map[string]TensorJSON{
				"x":     {Shape: []int{4}, Data: []float32{1, 2, 3, 4}},
				"bogus": {Shape: []int{1}, Data: []float32{1}},
			}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, _ := postInfer(t, ts.URL, tc.req)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/infer: status %d, want 405", resp.StatusCode)
	}
}

// TestRegistryRetriesFailedBuild: a build that fails leaves no entry in
// either cache, so the next Graph or Program call builds again and
// succeeds, and the call after that is served from the cache.
func TestRegistryRetriesFailedBuild(t *testing.T) {
	for _, via := range []string{"Graph", "Program"} {
		t.Run(via, func(t *testing.T) {
			reg := NewRegistry(ramiel.Options{}, false)
			var builds atomic.Int64
			g := tinyModel()
			reg.Register("tiny", func() (*ramiel.Graph, error) {
				if builds.Add(1) == 1 {
					return nil, errors.New("transient source failure")
				}
				return g, nil
			})
			call := func() error {
				if via == "Graph" {
					_, err := reg.Graph("tiny")
					return err
				}
				_, err := reg.Program("tiny", 1)
				return err
			}
			if err := call(); !errors.Is(err, ErrCompile) {
				t.Fatalf("first %s: err = %v, want ErrCompile", via, err)
			}
			if reg.PeekGraph("tiny") != nil || reg.Peek("tiny", 1) != nil {
				t.Fatal("the failed build left a cache entry")
			}
			for i := 0; i < 2; i++ {
				if err := call(); err != nil {
					t.Fatalf("%s after the failure: %v", via, err)
				}
			}
			if n := builds.Load(); n != 2 {
				t.Errorf("source built %d times, want 2 (one failure, one retry)", n)
			}
			if reg.PeekGraph("tiny") != g {
				t.Error("the retried graph is not cached")
			}
		})
	}
}

package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	ramiel "repro"
	"repro/internal/serve"
)

// wireReply is what a client of POST /v1/infer can tell apart.
type wireReply struct {
	status int
	cause  string
	err    string
}

// postInfer sends one POST /v1/infer body through h.
func postInfer(t *testing.T, h http.Handler, body string) (wireReply, http.Header) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body)))
	var er serve.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Errorf("reply is not JSON: %v: %s", err, rec.Body)
	}
	return wireReply{rec.Code, er.Cause, er.Error}, rec.Header()
}

// TestInferWireGolden pins status, cause and error text of POST /v1/infer on
// both tiers — serve.Server.Handler and fleet.Front.Handler over an in-process
// replica of the same server — so a change to how bodies are read or refused
// cannot move what a client sees. The tiers mount one handler and every
// refusal is decided in Server.Infer, so a row has one reply; the one place a
// front answers differently — seed mode with no in-process replica to derive
// feeds from — is pinned at the end.
func TestInferWireGolden(t *testing.T) {
	const maxBody = 2048
	srv := newLocalServer(t, serve.Config{Workers: 1, MaxBatch: 1, MaxBodyBytes: maxBody})
	front := New(Config{MaxBodyBytes: maxBody},
		NewLocal("r0", newLocalServer(t, serve.Config{Workers: 1, MaxBatch: 1})))
	handlers := []struct {
		name string
		h    http.Handler
	}{{"serve", srv.Handler()}, {"fleet", front.Handler()}}

	const tooLarge = "serve: request body too large (limit 2048 bytes)"
	rows := []struct {
		name string
		body string
		want wireReply
	}{
		{name: "ok", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[-1,0,1,2]}}}`,
			want: wireReply{status: 200}},
		{name: "ok, spaced and reordered", body: " {\n\"inputs\" : {\"x\": {\"data\": [ -1 , 0.5e0 ,1E+0, 2 ] ,\"shape\":[ 4 ]}},\t\"model\":\"tiny\"}\r\n",
			want: wireReply{status: 200}},
		{name: "ok through the stdlib (escaped key, unknown field)", body: `{"mod\u0065l":"tiny","extra":[{}],"inputs":{"x":{"shape":[4],"data":[-1,0,1,2]}}}`,
			want: wireReply{status: 200}},
		{name: "seed", body: `{"model":"tiny","seed":7}`,
			want: wireReply{status: 200}},
		{name: "malformed", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[-1,0,1,,2]}}}`,
			want: wireReply{400, "", "decoding request: invalid character ',' looking for beginning of value"}},
		{name: "not JSON", body: `hello`,
			want: wireReply{400, "", "decoding request: invalid character 'h' looking for beginning of value"}},
		{name: "empty body", body: ``,
			want: wireReply{400, "", "decoding request: EOF"}},
		{name: "truncated", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[-1,0`,
			want: wireReply{400, "", "decoding request: unexpected EOF"}},
		{name: "body over MaxBodyBytes", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[` + strings.Repeat("1,", 4000) + `1]}}}`,
			want: wireReply{413, "body_too_large", tooLarge}},
		{name: "shape/data length mismatch", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[1,2,3]}}}`,
			want: wireReply{400, "", `input "x": shape [4] wants 4 values, got 3`}},
		{name: "invalid shape", body: `{"model":"tiny","inputs":{"x":{"shape":[-4],"data":[1,2,3,4]}}}`,
			want: wireReply{400, "", `input "x": invalid shape [-4]`}},
		{name: "missing model", body: `{"inputs":{"x":{"shape":[4],"data":[1,2,3,4]}}}`,
			want: wireReply{400, "", `missing "model"`}},
		{name: "neither inputs nor seed", body: `{"model":"tiny"}`,
			want: wireReply{400, "", `provide "inputs" or "seed"`}},
		{name: "unknown model", body: `{"model":"nope","inputs":{"x":{"shape":[1],"data":[1]}}}`,
			want: wireReply{404, "", `serve: model "nope": model not registered`}},
		{name: "unknown model, seed mode", body: `{"model":"nope","seed":1}`,
			want: wireReply{404, "", `serve: model "nope": model not registered`}},
		{name: "number out of float32 range", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[1,2,3,1e39]}}}`,
			want: wireReply{400, "", "decoding request: json: cannot unmarshal number 1e39 into Go struct field TensorJSON.inputs.data of type float32"}},
		{name: "wrong type for model", body: `{"model":7,"seed":1}`,
			want: wireReply{400, "", "decoding request: json: cannot unmarshal number into Go struct field InferRequest.model of type string"}},
		{name: "data not an array", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":"abc"}}}`,
			want: wireReply{400, "", "decoding request: json: cannot unmarshal string into Go struct field TensorJSON.inputs.data of type []float32"}},
		{name: "fractional dimension", body: `{"model":"tiny","inputs":{"x":{"shape":[4.5],"data":[1,2,3,4]}}}`,
			want: wireReply{400, "", "decoding request: json: cannot unmarshal number 4.5 into Go struct field TensorJSON.inputs.shape of type int"}},
		{name: "feeds do not match the model", body: `{"model":"tiny","inputs":{"x":{"shape":[2,2],"data":[1,2,3,4]}}}`,
			want: wireReply{400, "validation", `ramiel: invalid feeds for "tiny": shape mismatches: x: feed has shape [2 2], program declares [4]`}},
		{name: "trailing bytes after the value", body: `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[-1,0,1,2]}}}garbage`,
			want: wireReply{400, "", "decoding request: invalid character 'g' after top-level value"}},
		{name: "second value after the first", body: `{"model":"tiny","seed":1} {"model":"tiny","seed":2}`,
			want: wireReply{400, "", "decoding request: invalid character '{' after top-level value"}},
	}
	for _, h := range handlers {
		for _, row := range rows {
			t.Run(h.name+"/"+row.name, func(t *testing.T) {
				if got, _ := postInfer(t, h.h, row.body); got != row.want {
					t.Errorf("got  %+v\nwant %+v", got, row.want)
				}
			})
		}
	}
	t.Run("remote-only fleet/seed", func(t *testing.T) {
		remote := New(Config{}, NewRemote("r0", "http://127.0.0.1:0")).Handler()
		want := wireReply{400, "", `seed mode needs an in-process replica (remote fleets take "inputs")`}
		if got, _ := postInfer(t, remote, `{"model":"tiny","seed":7}`); got != want {
			t.Errorf("got  %+v\nwant %+v", got, want)
		}
	})
}

// TestInferWireSheds: every way the stack turns a request away under load
// reaches the client through the one handler as a status, a cause label and a
// whole-second Retry-After of at least 1 — on the daemon tier where the shed
// exists there, and through the front either way.
func TestInferWireSheds(t *testing.T) {
	const body = `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[-1,0,1,2]}}}`

	// One byte of budget: the first requests are admitted while the model's
	// estimate is still being sized in the background, every later one sheds.
	memSrv := newLocalServer(t, serve.Config{Workers: 1, MaxBatch: 1, MemBudgetBytes: 1})
	for i := 0; ; i++ {
		if _, _, err := memSrv.Infer(context.Background(), "tiny", tinyFeeds(0), false); errors.Is(err, serve.ErrMemoryPressure) {
			break
		}
		if i > 2000 {
			t.Fatal("memory estimate never landed: no request shed")
		}
		time.Sleep(time.Millisecond)
	}

	// A pending window of one, held by a blocked request.
	blocked := newFake("r0", 1, 0)
	blocked.block = make(chan struct{})
	full := New(Config{MaxPending: 1}, blocked)
	held := make(chan struct{})
	go func() {
		defer close(held)
		full.Infer(context.Background(), "tiny", nil, false)
	}()
	defer func() { close(blocked.block); <-held }()
	for i := 0; full.SnapshotModel("tiny").Pending == 0; i++ {
		if i > 1000 {
			t.Fatal("first request never became pending")
		}
		time.Sleep(time.Millisecond)
	}

	// A model measured at 20 ms asked for in 1 ms.
	slow := New(Config{}, newFake("r0", 1, 20*time.Millisecond))
	for i := 0; i < 3; i++ {
		if _, _, _, err := slow.Infer(context.Background(), "tiny", nil, false); err != nil {
			t.Fatal(err)
		}
	}

	down := newFake("r0", 1, 0)
	down.ready.Store(false)

	for _, row := range []struct {
		name string
		h    http.Handler
		body string
		want wireReply
	}{
		{"serve/memory", memSrv.Handler(), body,
			wireReply{429, "memory", "serve: memory budget exceeded, shedding"}},
		{"fleet/memory", New(Config{}, NewLocal("r0", memSrv)).Handler(), body,
			wireReply{429, "memory", "serve: memory budget exceeded, shedding"}},
		{"fleet/queue_full", full.Handler(), body,
			wireReply{429, "queue_full", "fleet: model queue full"}},
		{"fleet/infeasible", slow.Handler(), `{"model":"tiny","timeout_ms":1,"inputs":{"x":{"shape":[4],"data":[-1,0,1,2]}}}`,
			wireReply{429, "infeasible", "fleet: deadline infeasible: predicted completion exceeds the request deadline"}},
		{"fleet/no_replica", New(Config{}, down).Handler(), body,
			wireReply{503, "no_replica", "fleet: no ready replica"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			got, hdr := postInfer(t, row.h, row.body)
			if got != row.want {
				t.Errorf("got  %+v\nwant %+v", got, row.want)
			}
			if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 {
				t.Errorf("Retry-After = %q, want an integer >= 1", hdr.Get("Retry-After"))
			}
		})
	}
}

// TestBatchPoisoning: a request whose feeds do not match the model is refused
// before it can join a micro-batch, so the well-formed request sharing its
// window is served — and the refusal names the client's input, not the
// batch program's replica of it. Through the front's handler and directly
// against Server.Infer.
func TestBatchPoisoning(t *testing.T) {
	cfg := serve.Config{Workers: 1, MaxBatch: 2, FlushTimeout: 200 * time.Millisecond}
	const (
		good = `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[-1,0,1,2]}}}`
		bad  = `{"model":"tiny","inputs":{"x":{"shape":[2,2],"data":[-1,0,1,2]}}}`
	)
	checkBad := func(t *testing.T, msg string) {
		t.Helper()
		if !strings.Contains(msg, "x: feed has shape [2 2]") || strings.Contains(msg, "x#") || strings.Contains(msg, "tiny_batch") {
			t.Errorf("refusal %q does not name the client's input x alone", msg)
		}
	}
	// Both requests are in flight together: the window the good one opens
	// stays open for 200 ms, far longer than the bad one needs to arrive.
	both := func(a, b func()) {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); a() }()
		go func() { defer wg.Done(); b() }()
		wg.Wait()
	}

	t.Run("front", func(t *testing.T) {
		h := New(Config{}, NewLocal("r0", newLocalServer(t, cfg))).Handler()
		var goodReply, badReply wireReply
		both(func() { goodReply, _ = postInfer(t, h, good) }, func() { badReply, _ = postInfer(t, h, bad) })
		if goodReply.status != 200 {
			t.Errorf("well-formed request got %+v, want 200", goodReply)
		}
		if badReply.status != 400 || badReply.cause != "validation" {
			t.Errorf("mis-shaped request got %+v, want 400 validation", badReply)
		}
		checkBad(t, badReply.err)
	})
	t.Run("server", func(t *testing.T) {
		srv := newLocalServer(t, cfg)
		badFeeds := ramiel.Env{"x": ramiel.NewTensor(ramiel.NewShape(2, 2), []float32{-1, 0, 1, 2})}
		var goodErr, badErr error
		both(func() { _, _, goodErr = srv.Infer(context.Background(), "tiny", tinyFeeds(-1), false) },
			func() { _, _, badErr = srv.Infer(context.Background(), "tiny", badFeeds, false) })
		if goodErr != nil {
			t.Errorf("well-formed request failed: %v", goodErr)
		}
		if !errors.Is(badErr, ramiel.ErrInvalidFeeds) {
			t.Fatalf("mis-shaped request: err = %v, want ErrInvalidFeeds", badErr)
		}
		checkBad(t, badErr.Error())
	})
}

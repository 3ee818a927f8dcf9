package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	ramiel "repro"
	"repro/internal/serve"
)

// endlessReply writes a 200 reply whose data array does not end for a
// client that keeps reading; it stops after limit bytes, so that a client
// without a cap fails instead of exhausting memory.
func endlessReply(w http.ResponseWriter, limit int) {
	io.WriteString(w, `{"model":"tiny","outputs":{"out":{"shape":[4],"data":[0`)
	chunk := strings.Repeat(",0", 1<<14)
	for sent := 0; sent < limit; sent += len(chunk) {
		if _, err := io.WriteString(w, chunk); err != nil {
			return // the client hung up
		}
	}
}

// TestRemoteReplyOverCapFails: a replica whose 200 reply streams a data
// array without end fails the attempt once the reply passes the cap, with
// a 502 refusal, cause reply_too_large, whose text names the cap.
func TestRemoteReplyOverCapFails(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endlessReply(w, 4*replyCapFloor)
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, err := NewRemote("r0", ts.URL).Infer(ctx, "tiny", tinyFeeds(0), false)
	var re *serve.Refusal
	if !errors.As(err, &re) || re.Status != http.StatusBadGateway || re.Cause != "reply_too_large" ||
		!strings.Contains(err.Error(), strconv.Itoa(replyCapFloor)) {
		t.Fatalf("err = %v, want a 502 reply_too_large refusal naming the %d-byte cap", err, replyCapFloor)
	}
}

// TestRemoteReplyOverCapNotRetried: a reply past the cap fails its
// request on the first attempt, since the other replica would send the
// same reply, and no breaker counts it: with a threshold of one failure,
// three such requests leave both breakers closed.
func TestRemoteReplyOverCapNotRetried(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var calls atomic.Int64
	var replicas []Replica
	for i := range 2 {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/stats" {
				io.WriteString(w, `{"ready":true,"pool":{"workers":1},"max_output_values":4}`)
				return
			}
			calls.Add(1)
			endlessReply(w, 2*replyCapFloor)
		}))
		defer ts.Close()
		rem := NewRemote(fmt.Sprintf("r%d", i), ts.URL)
		if err := rem.Probe(ctx); err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, rem)
	}
	front := New(Config{MaxAttempts: 2, BreakerThreshold: 1}, replicas...)
	for range 3 {
		_, _, info, err := front.Infer(ctx, "tiny", tinyFeeds(0), false)
		if status, cause, _ := serve.ReplyFor(err); status != http.StatusBadGateway || cause != "reply_too_large" {
			t.Fatalf("err = %v (status %d, cause %q), want 502 reply_too_large", err, status, cause)
		}
		if info.Attempts != 1 {
			t.Errorf("over-cap reply took %d attempts, want 1", info.Attempts)
		}
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("replicas saw %d requests, want 3", n)
	}
	for _, snap := range front.Snapshot().Replicas {
		if snap.Breaker != "closed" || snap.BreakerOpens != 0 {
			t.Errorf("replica %s breaker %s after %d opens, want closed and never opened", snap.Name, snap.Breaker, snap.BreakerOpens)
		}
	}
}

// TestRemoteReplyCapFollowsStats: the cap on a replica's replies is worked
// out from the output size its stats report, so a valid reply longer than
// the floor is decoded from a replica that reports outputs that large and
// refused from one that does not. A daemon reports its models' declared
// output shapes and the largest reply it has served.
func TestRemoteReplyCapFollowsStats(t *testing.T) {
	for _, c := range []struct{ values, want int64 }{
		{-1, replyCapFloor},
		{0, replyCapFloor},
		{1000, replyCapFloor},
		{1 << 20, 1<<20*maxValueJSONBytes + replySlackBytes},
		{math.MaxInt64, replyCapCeiling},
	} {
		if got := replyCapFor(c.values); got != c.want {
			t.Errorf("replyCapFor(%d) = %d, want %d", c.values, got, c.want)
		}
	}

	// A daemon's stats: yolo_v5 at 32 px declares 3·15·(16+4+1) output values;
	// tiny declares none, and its replies carry 4.
	srv := newLocalServer(t, serve.Config{Workers: 1, MaxBatch: 1})
	if err := srv.RegisterZoo(ramiel.ModelConfig{ImageSize: 32}, "yolo_v5"); err != nil {
		t.Fatal(err)
	}
	stats := func() (st struct {
		MaxOutputValues int64 `json:"max_output_values"`
	}) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	if got := stats().MaxOutputValues; got != 0 {
		t.Errorf("max_output_values = %d before any graph is built or reply served, want 0", got)
	}
	if _, _, err := srv.Infer(context.Background(), "tiny", tinyFeeds(0), false); err != nil {
		t.Fatal(err)
	}
	if got := stats().MaxOutputValues; got != 4 {
		t.Errorf("max_output_values = %d after one tiny reply, want 4", got)
	}
	if err := srv.Warm("yolo_v5"); err != nil {
		t.Fatal(err)
	}
	if got, want := stats().MaxOutputValues, int64(3*15*(16+4+1)); got != want {
		t.Errorf("max_output_values = %d with yolo_v5 built, want its %d declared output values", got, want)
	}

	// A valid reply of 1M values at 17 bytes each, past the 16 MiB floor.
	const n = 1 << 20
	body := `{"model":"big","outputs":{"out":{"shape":[` + strconv.Itoa(n) + `],"data":[` +
		strings.Repeat("-0.0000012345679,", n-1) + `-0.0000012345679]}}}`
	var reported atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stats" {
			fmt.Fprintf(w, `{"ready":true,"pool":{"workers":1},"max_output_values":%d}`, reported.Load())
			return
		}
		io.WriteString(w, body)
	}))
	defer ts.Close()
	for _, values := range []int64{4, n} {
		reported.Store(values)
		rem := NewRemote("r0", ts.URL)
		if err := rem.Probe(context.Background()); err != nil {
			t.Fatal(err)
		}
		outs, _, err := rem.Infer(context.Background(), "big", tinyFeeds(0), false)
		switch {
		case values < n && err == nil:
			t.Errorf("a %d-byte reply passed a cap worked out for %d values", len(body), values)
		case values == n && err != nil:
			t.Errorf("a %d-byte reply of %d values, as reported: %v", len(body), n, err)
		case values == n && outs["out"].Numel() != n:
			t.Errorf("decoded %d values, want %d", outs["out"].Numel(), n)
		}
	}
}

// replyTransport answers every request with a 200 whose body is its bytes.
type replyTransport []byte

func (b replyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Status:     "200 OK",
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(b)),
		Request:    req,
	}, nil
}

// squeezenetReply is a real 200 reply of POST /v1/infer: squeezenet at 32
// px on a seeded request, served by an in-process daemon.
func squeezenetReply(tb testing.TB) []byte {
	srv := serve.New(serve.Config{Workers: 1, MaxBatch: 1})
	defer srv.Close(context.Background())
	if err := srv.RegisterZoo(ramiel.ModelConfig{ImageSize: 32}, "squeezenet"); err != nil {
		tb.Fatal(err)
	}
	srv.MarkReady()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(`{"model":"squeezenet","seed":1}`)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("squeezenet reply: status %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// FuzzRemoteReply serves arbitrary bytes as a replica's 200 reply to
// Remote.Infer. It must not panic; it must allocate at most a fixed
// multiple of the reply bytes it may read, which the cap bounds; and it
// must return an error or outputs whose shapes match their data. Seeds: a
// real squeezenet reply, the same cut in half, and a reply past the cap.
func FuzzRemoteReply(f *testing.F) {
	reply := squeezenetReply(f)
	f.Add(reply)
	f.Add(reply[:len(reply)/2])
	overCap := []byte(`{"model":"squeezenet","outputs":{"y":{"shape":[1],"data":[0`)
	f.Add(append(overCap, bytes.Repeat([]byte(",0"), replyCapFloor/2)...))
	feeds := tinyFeeds(0)
	f.Fuzz(func(t *testing.T, body []byte) {
		r := NewRemote("r0", "http://replica")
		r.client = &http.Client{Transport: replyTransport(body)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		outs, _, err := r.Infer(context.Background(), "squeezenet", feeds, false)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, 32*min(len(body), replyCapFloor)+1<<20; got > uint64(bound) {
			t.Fatalf("allocated %d bytes for a %d-byte reply, want at most %d", got, len(body), bound)
		}
		if err != nil {
			return
		}
		for name, o := range outs {
			if o.Shape().Numel() != len(o.Data()) {
				t.Fatalf("output %q: shape %v holds %d values, data has %d", name, o.Shape(), o.Shape().Numel(), len(o.Data()))
			}
		}
	})
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	ramiel "repro"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/serve"
)

// input is one generated request: the tensors the program sees, the JSON
// body that carries them on the wire, and the reference interpreter's
// answer.
type input struct {
	feeds ramiel.Env
	body  []byte
	ref   ramiel.Env
}

// makeInputs draws n feeds from seed and computes their reference
// outputs with exec.RunSequential on the uncompiled graph — an interpreter
// that shares no pass, plan, arena or prepack with the program under test.
func makeInputs(spec workloadSpec, g *ramiel.Graph, seed uint64, n int) ([]input, error) {
	ins := make([]input, n)
	for i := range ins {
		feeds := ramiel.RandomInputs(g, seed*uint64(n)+uint64(i))
		ref, err := exec.RunSequential(g, feeds)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		ins[i] = input{feeds: feeds, ref: ref}
		req := serve.InferRequest{Model: spec.Model, Inputs: map[string]serve.TensorJSON{}}
		for name, t := range feeds {
			req.Inputs[name] = serve.TensorJSON{Shape: t.Shape(), Data: t.Data()}
		}
		if ins[i].body, err = json.Marshal(req); err != nil {
			return nil, fmt.Errorf("encoding request body: %w", err)
		}
	}
	return ins, nil
}

// reqInfo is what the serving layers report about one request.
type reqInfo struct {
	meta    serve.InferMeta
	route   fleet.RouteInfo
	served  bool          // meta is filled in
	shed    bool          // refused by admission, not failed
	callDur time.Duration // the call into the serving layer, as the client saw it
	// callSpan and callEnd place the call in the trace (traced runs only).
	callSpan int32
	callEnd  int64
}

// target is one workload, set up and warm: something requests can be sent
// to, on as many callers as the workload has.
type target struct {
	spec    workloadSpec
	callers int
	// do sends input in on caller c and returns the outputs. parent is the
	// request's root span when tracing.
	do    func(ctx context.Context, c int, in *input, tr *tracer, parent int32) (ramiel.Env, reqInfo, error)
	close func() error
}

func compileOpts(spec workloadSpec) []ramiel.CompileOption {
	if spec.Prune {
		return []ramiel.CompileOption{ramiel.WithPrune()}
	}
	return nil
}

func numCallers(spec workloadSpec) int {
	if spec.Callers > 0 {
		return spec.Callers
	}
	return runtime.GOMAXPROCS(0)
}

// setUp is what setup_s times: from nothing to the first warm request —
// build the model, compile it (passes, clustering, plan, prepack), start
// whatever serves it, and run warmup requests so memory plans, arenas and
// program caches are filled.
func setUp(spec workloadSpec, ins []input, tr *tracer, warmup int) (*target, error) {
	g, err := ramiel.BuildModel(spec.Model, ramiel.ModelConfig{ImageSize: spec.ImageSize})
	if err != nil {
		return nil, err
	}
	var t *target
	switch spec.Path {
	case pathSession:
		t, err = setUpSession(spec, g)
	case pathWire:
		t, err = setUpWire(spec, g, tr)
	case pathFleet:
		t, err = setUpFleet(spec, g)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmup; i++ {
		in := &ins[i%len(ins)]
		if _, _, err := t.do(context.Background(), i%t.callers, in, nil, 0); err != nil {
			_ = t.close() // the warm-up error is the one to report
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return t, nil
}

func setUpSession(spec workloadSpec, g *ramiel.Graph) (*target, error) {
	prog, err := ramiel.Compile(g, compileOpts(spec)...)
	if err != nil {
		return nil, err
	}
	n := numCallers(spec)
	sessions := make([]*ramiel.Session, n)
	for i := range sessions {
		sessions[i] = prog.NewSession()
	}
	return &target{
		spec:    spec,
		callers: n,
		do: func(ctx context.Context, c int, in *input, tr *tracer, parent int32) (ramiel.Env, reqInfo, error) {
			start := time.Now()
			out, err := sessions[c].Run(ctx, in.feeds)
			if tr != nil {
				tr.add(parent, parent, "exec", "Session.Run", tr.at(start), tr.at(time.Now()), false)
			}
			return out, reqInfo{}, err
		},
		close: func() error { return nil },
	}, nil
}

func newServer(spec workloadSpec, g *ramiel.Graph, cfg serve.Config) (*serve.Server, error) {
	cfg.Compile = ramiel.Options{Prune: spec.Prune}
	srv := serve.New(cfg)
	srv.RegisterGraph(spec.Model, g)
	if err := srv.Warm(); err != nil {
		return nil, err
	}
	return srv, nil
}

// spanHeader carries the client's call span to the handler wrapper, so the
// server-side interval lands under the right parent.
const spanHeader = "X-Rambench-Span"

func setUpWire(spec workloadSpec, g *ramiel.Graph, tr *tracer) (*target, error) {
	srv, err := newServer(spec, g, serve.Config{MaxBatch: 1})
	if err != nil {
		return nil, err
	}
	handler := srv.Handler()
	if tr != nil {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			inner.ServeHTTP(w, r)
			if id, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
				tr.putHandler(int32(id), tr.at(start), tr.at(time.Now()))
			}
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	n := numCallers(spec)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n}}
	url := "http://" + ln.Addr().String() + "/v1/infer"
	return &target{
		spec:    spec,
		callers: n,
		do: func(ctx context.Context, c int, in *input, tr *tracer, parent int32) (ramiel.Env, reqInfo, error) {
			return postInfer(ctx, client, url, in, tr, parent)
		},
		close: func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			err := hs.Shutdown(ctx)
			if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
				err = serr
			}
			client.CloseIdleConnections()
			if cerr := srv.Close(ctx); err == nil {
				err = cerr
			}
			return err
		},
	}, nil
}

// postInfer is the wire client: one POST with a pre-marshalled body, the
// reply read to its end, then decoded.
func postInfer(ctx context.Context, client *http.Client, url string, in *input, tr *tracer, parent int32) (ramiel.Env, reqInfo, error) {
	var info reqInfo
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(in.body))
	if err != nil {
		return nil, info, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		info.callSpan = tr.reserve(parent, parent, "wire", "http.roundtrip", tr.at(start))
		req.Header.Set(spanHeader, strconv.Itoa(int(info.callSpan)))
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, info, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; nothing left to lose
	end := time.Now()
	info.callDur = end.Sub(start)
	if tr != nil {
		info.callEnd = tr.at(end)
		tr.finish(info.callSpan, tr.at(start), info.callEnd)
	}
	if err != nil {
		return nil, info, fmt.Errorf("reading reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		info.shed = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		return nil, info, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var ir serve.InferResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		return nil, info, fmt.Errorf("decoding reply: %w", err)
	}
	outs := make(ramiel.Env, len(ir.Outputs))
	for name, tj := range ir.Outputs {
		outs[name] = ramiel.NewTensor(ramiel.NewShape(tj.Shape...), tj.Data)
	}
	info.served = true
	info.meta = serve.InferMeta{
		RequestID: ir.RequestID,
		BatchSize: ir.BatchSize,
		Latency:   time.Duration(ir.LatencyUs) * time.Microsecond,
		BatchWait: time.Duration(ir.BatchWaitUs) * time.Microsecond,
		QueueWait: time.Duration(ir.QueueWaitUs) * time.Microsecond,
		Exec:      time.Duration(ir.ExecUs) * time.Microsecond,
	}
	return outs, info, nil
}

// setUpFleet is `ramield -replicas 2 -max-batch 4 -adaptive -workers 1`
// without the listener: two batching replicas behind a front with admission
// on.
func setUpFleet(spec workloadSpec, g *ramiel.Graph) (*target, error) {
	var servers []*serve.Server
	var replicas []fleet.Replica
	for i := 0; i < 2; i++ {
		srv, err := newServer(spec, g, serve.Config{Workers: 1, MaxBatch: 4, AdaptiveBatch: true})
		if err != nil {
			return nil, err
		}
		servers = append(servers, srv)
		replicas = append(replicas, fleet.NewLocal("r"+strconv.Itoa(i), srv))
	}
	front := fleet.New(fleet.Config{}, replicas...)
	return &target{
		spec:    spec,
		callers: numCallers(spec),
		do: func(ctx context.Context, c int, in *input, tr *tracer, parent int32) (ramiel.Env, reqInfo, error) {
			start := time.Now()
			outs, meta, route, err := front.Infer(ctx, spec.Model, in.feeds, false)
			end := time.Now()
			info := reqInfo{meta: meta, route: route, served: err == nil, callDur: end.Sub(start)}
			info.shed = errors.Is(err, fleet.ErrQueueFull) || errors.Is(err, fleet.ErrInfeasible) || errors.Is(err, fleet.ErrNoReplica)
			if tr != nil {
				info.callEnd = tr.at(end)
				info.callSpan = tr.add(parent, parent, "fleet", "Front.Infer", tr.at(start), info.callEnd, false)
			}
			return outs, info, err
		},
		close: func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var err error
			for _, srv := range servers {
				if cerr := srv.Close(ctx); err == nil {
					err = cerr
				}
			}
			return err
		},
	}, nil
}

// addServerSpans rebuilds the server side of a served request from the
// stage times the serving layer reports: under the call span (or, on the
// wire, under the handler interval the wrapper measured) a serve.Infer span
// of InferMeta.Latency holding batch wait, queue wait and exec back to back.
// Lengths are the reported ones; rambench chooses the positions.
func addServerSpans(tr *tracer, req int32, info reqInfo) {
	if tr == nil || !info.served || info.callSpan == 0 {
		return
	}
	parent, end := info.callSpan, info.callEnd
	if hs, he, ok := tr.takeHandler(info.callSpan); ok {
		parent = tr.add(info.callSpan, req, "serve", "Handler", hs, he, false)
		end = he
	}
	m := info.meta
	start := end - int64(m.Latency)
	infer := tr.add(parent, req, "serve", "Server.Infer", start, end, true)
	at := end - int64(m.Exec)
	tr.add(infer, req, "exec", "exec", at, end, true)
	if m.QueueWait > 0 {
		tr.add(infer, req, "serve.queue", "queue_wait", at-int64(m.QueueWait), at, true)
		at -= int64(m.QueueWait)
	}
	if m.BatchWait > 0 {
		tr.add(infer, req, "serve.batch", "batch_wait", at-int64(m.BatchWait), at, true)
	}
}

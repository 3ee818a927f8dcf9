package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	ramiel "repro"
	"repro/internal/serve"
)

// Remote is a fleet replica reached over the ramield HTTP API. Health,
// readiness, load, and worker count come from periodic probes of /readyz
// and /v1/stats (StartProbing), so the routing hot path only reads
// atomics; Infer posts /v1/infer with the same wire types the daemon
// serves.
type Remote struct {
	name   string
	base   string // e.g. "http://host:8080", no trailing slash
	client *http.Client

	healthy  atomic.Bool
	ready    atomic.Bool
	queued   atomic.Int64
	inflight atomic.Int64
	workers  atomic.Int64
	// memFree/memKnown mirror the replica's memory headroom from its stats
	// probe; memKnown stays false for daemons without governance (or too old
	// to report it), and routing then ignores memory for this replica.
	memFree  atomic.Int64
	memKnown atomic.Bool
	// replyCap is the byte cap on this replica's 200 replies to /v1/infer,
	// worked out by replyCapFor from the largest outputs its stats report.
	replyCap atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
}

// NewRemote creates a remote replica client for a ramield base URL. The
// replica reports unhealthy until the first successful Probe.
func NewRemote(name, baseURL string) *Remote {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	r := &Remote{
		name: name,
		base: baseURL,
		// No client-level timeout: per-request deadlines come from the
		// caller's context (probes bring their own).
		client: &http.Client{},
		stop:   make(chan struct{}),
	}
	r.replyCap.Store(replyCapFloor)
	return r
}

func (r *Remote) Name() string              { return r.name }
func (r *Remote) Healthy() bool             { return r.healthy.Load() }
func (r *Remote) Ready() bool               { return r.ready.Load() }
func (r *Remote) Load() (q, inflight int64) { return r.queued.Load(), r.inflight.Load() }
func (r *Remote) Workers() int              { return int(r.workers.Load()) }

// MemFree reports the replica's last-probed memory headroom; known is false
// when the replica does not run memory governance.
func (r *Remote) MemFree() (bytes int64, known bool) {
	return r.memFree.Load(), r.memKnown.Load()
}

// statsProbe is the subset of ramield's /v1/stats the prober consumes.
type statsProbe struct {
	Ready bool `json:"ready"`
	Pool  struct {
		Workers    int   `json:"workers"`
		QueueDepth int64 `json:"queue_depth"`
		InFlight   int64 `json:"in_flight"`
	} `json:"pool"`
	Models map[string]struct {
		QueueDepth int64 `json:"queue_depth"`
	} `json:"models"`
	Memory struct {
		Enabled       bool  `json:"enabled"`
		HeadroomBytes int64 `json:"headroom_bytes"`
	} `json:"memory"`
	MaxOutputValues int64 `json:"max_output_values"`
}

// Probe refreshes health/readiness/load from one GET /v1/stats. A failed
// probe marks the replica unhealthy (and not ready) until a later probe
// succeeds.
func (r *Remote) Probe(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/v1/stats", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.healthy.Store(false)
		r.ready.Store(false)
		return fmt.Errorf("fleet: probing %s: %w", r.name, err)
	}
	defer resp.Body.Close()
	var st statsProbe
	// A stats endpoint is trusted but still bounded: a confused or
	// compromised peer must not make the prober buffer an unbounded body.
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
		r.healthy.Store(false)
		r.ready.Store(false)
		if err == nil {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		return fmt.Errorf("fleet: probing %s: %w", r.name, err)
	}
	queued := st.Pool.QueueDepth
	for _, m := range st.Models {
		queued += m.QueueDepth
	}
	r.queued.Store(queued)
	r.inflight.Store(st.Pool.InFlight)
	r.workers.Store(int64(st.Pool.Workers))
	r.memFree.Store(st.Memory.HeadroomBytes)
	r.memKnown.Store(st.Memory.Enabled)
	r.replyCap.Store(replyCapFor(st.MaxOutputValues))
	r.healthy.Store(true)
	r.ready.Store(st.Ready)
	return nil
}

// StartProbing probes immediately and then on a backoff schedule until
// StopProbing: every interval while probes succeed, doubling after each
// consecutive failure up to 16× interval with ±25% jitter — so a dead
// host is checked at a trickle instead of hammered on a fixed ticker, a
// recovering one is noticed within the cap, and a fleet of fronts does
// not probe it in lockstep. The first success resets the schedule. Probe
// errors only flip the health flags; they are not surfaced (the next
// routing decision sees the flag).
func (r *Remote) StartProbing(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	probe := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), interval)
		defer cancel()
		return r.Probe(ctx)
	}
	fails := 0
	if probe() != nil {
		fails = 1
	}
	go func() {
		// Seeded per replica name: deterministic for a given fleet layout,
		// decorrelated across replicas.
		rng := rand.New(rand.NewSource(int64(fnv64(r.name))))
		for {
			t := time.NewTimer(probeDelay(interval, fails, rng.Float64()))
			select {
			case <-t.C:
				if probe() == nil {
					fails = 0
				} else {
					fails++
				}
			case <-r.stop:
				t.Stop()
				return
			}
		}
	}()
}

// probeDelay is the wait before the next probe after fails consecutive
// failures: interval × 2^fails capped at 16× interval, spread over ±25%
// by the jitter draw (uniform [0,1)). Pure, so the schedule is unit-tested
// without a clock.
func probeDelay(interval time.Duration, fails int, jitter float64) time.Duration {
	d := interval
	for i := 0; i < fails && d < 16*interval; i++ {
		d *= 2
	}
	d = min(d, 16*interval)
	return d + time.Duration((jitter-0.5)*0.5*float64(d))
}

// StopProbing ends the probe loop. Idempotent.
func (r *Remote) StopProbing() { r.stopOnce.Do(func() { close(r.stop) }) }

// TransportError is a failure to get an answer from a replica at all —
// connection refused/reset, DNS failure, or the connection dying
// mid-response — as opposed to an HTTP response carrying an application
// error. Transport failures are retryable on another replica and count
// against the circuit breaker; they are the signature of a dead or dying
// host. The request's own cancellation/deadline is never wrapped in one.
type TransportError struct {
	Replica string
	Err     error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("fleet: replica %s unreachable: %v", e.Replica, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// A replica's 200 reply to /v1/infer carries one request's outputs, so
// its size can be worked out from the outputs of the replica's models,
// which its stats report: encoding/json writes a float32 in at most 22
// bytes ("-999999900000000000000", just below 1e21 where it switches to
// exponent form), and a comma follows it.
const (
	maxValueJSONBytes = 23
	// replySlackBytes covers a reply's output names, shapes and timings.
	replySlackBytes = 64 << 10
	// replyCapFloor is the cap before the first probe, and holds replies of
	// models a replica has not built yet (they are not in its stats): about
	// 730k float32 values at their longest, twice the zoo's largest reply
	// (yolo_v5 at 640 px, 378k values).
	replyCapFloor = 16 << 20
	// replyCapCeiling bounds what a replica's stats can raise the cap to: a
	// 1 GiB reply is past anything this wire should carry per request.
	replyCapCeiling = 1 << 30
)

// replyCapFor is the cap on the replies of a replica whose largest model
// output holds values float32 values.
func replyCapFor(values int64) int64 {
	values = min(max(values, 0), replyCapCeiling/maxValueJSONBytes)
	return min(max(values*maxValueJSONBytes+replySlackBytes, replyCapFloor), replyCapCeiling)
}

// Infer posts one request to the replica's /v1/infer. The caller context's
// deadline rides along as timeout_ms so the replica's own admission and
// deadline handling see the same budget.
func (r *Remote) Infer(ctx context.Context, model string, feeds ramiel.Env, noBatch bool) (ramiel.Env, serve.InferMeta, error) {
	req := serve.InferRequest{
		Model:   model,
		Inputs:  make(map[string]serve.TensorJSON, len(feeds)),
		NoBatch: noBatch,
	}
	for name, t := range feeds {
		req.Inputs[name] = serve.TensorJSON{Shape: t.Shape(), Data: t.Data()}
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.TimeoutMs = int(ms)
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, serve.InferMeta{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/v1/infer", bytes.NewReader(body))
	if err != nil {
		return nil, serve.InferMeta{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's own deadline or cancellation aborted the call:
			// that is not evidence against the replica.
			return nil, serve.InferMeta{}, ctx.Err()
		}
		return nil, serve.InferMeta{}, &TransportError{Replica: r.name, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er serve.ErrorResponse
		msg := resp.Status
		if b, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); rerr == nil {
			if jerr := json.Unmarshal(b, &er); jerr == nil && er.Error != "" {
				msg = er.Error
			}
		}
		// The replica answered: its status, cause label and Retry-After pass
		// through the front unchanged. Only its 5xx replies count as
		// retryable replica failures (see Retryable).
		retryAfter, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return nil, serve.InferMeta{}, &serve.Refusal{
			Status:     resp.StatusCode,
			Cause:      er.Cause,
			RetryAfter: time.Duration(retryAfter) * time.Second,
			Err:        fmt.Errorf("fleet: replica %s: %s (status %d)", r.name, msg, resp.StatusCode),
		}
	}
	var ir serve.InferResponse
	limit := r.replyCap.Load()
	reply := &io.LimitedReader{R: resp.Body, N: limit + 1}
	err = json.NewDecoder(reply).Decode(&ir)
	if reply.N == 0 {
		// More than the replica's models produce: any replica would send
		// the same reply, so this is neither retried nor held against the
		// replica's breaker (see Retryable).
		return nil, serve.InferMeta{}, &serve.Refusal{
			Status: http.StatusBadGateway,
			Cause:  serve.CauseReplyTooLarge.String(),
			Err:    fmt.Errorf("fleet: replica %s: reply larger than %d bytes", r.name, limit),
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, serve.InferMeta{}, ctx.Err()
		}
		// A 200 whose body did not parse is a connection that died
		// mid-response: transport-class, retryable.
		return nil, serve.InferMeta{}, &TransportError{Replica: r.name, Err: fmt.Errorf("decoding response: %w", err)}
	}
	outs := make(ramiel.Env, len(ir.Outputs))
	for name, tj := range ir.Outputs {
		shape := ramiel.NewShape(tj.Shape...)
		if !shape.Valid() || shape.Numel() != len(tj.Data) {
			return nil, serve.InferMeta{}, fmt.Errorf("fleet: replica %s: output %q has inconsistent shape %v", r.name, name, tj.Shape)
		}
		outs[name] = ramiel.NewTensor(shape, tj.Data)
	}
	meta := serve.InferMeta{
		RequestID: ir.RequestID,
		BatchSize: ir.BatchSize,
		Latency:   time.Duration(ir.LatencyUs) * time.Microsecond,
		BatchWait: time.Duration(ir.BatchWaitUs) * time.Microsecond,
		QueueWait: time.Duration(ir.QueueWaitUs) * time.Microsecond,
		Exec:      time.Duration(ir.ExecUs) * time.Microsecond,
	}
	return outs, meta, nil
}

package fleet

import (
	"context"

	ramiel "repro"
	"repro/internal/serve"
)

// Replica is one serving backend in the fleet: an in-process serve.Server
// (Local) or a remote ramield reached over HTTP (Remote). The interface is
// deliberately small — route, probe, and the three live signals the
// routing and admission layers consume.
type Replica interface {
	// Name identifies the replica; ring placement is derived from it, so
	// names must be distinct and stable across restarts.
	Name() string
	// Infer runs one request on the replica.
	Infer(ctx context.Context, model string, feeds ramiel.Env, noBatch bool) (ramiel.Env, serve.InferMeta, error)
	// Healthy reports liveness; Ready readiness (preload compiled, not
	// draining). For remote replicas both reflect the last probe.
	Healthy() bool
	Ready() bool
	// Load reports the replica's current pressure: requests accepted but
	// not yet picked up, and requests executing. The spillover watermark
	// and the admission controller's queue-wait prediction read it.
	Load() (queued, inflight int64)
	// Workers is the replica's execution parallelism — the service-rate
	// denominator in the admission controller's wait prediction.
	Workers() int
}

// memReporter is implemented by replicas that export a memory-headroom
// signal (Local over a governed serve.Server, Remote probing a governed
// daemon's /v1/stats). Optional: replicas without it — including test
// fakes — are simply routed without regard to memory.
type memReporter interface {
	// MemFree reports budget − in-use − reserved; known is false when the
	// replica runs no memory governance.
	MemFree() (bytes int64, known bool)
}

// memPressured reports whether routing should steer around the replica:
// its memory governor is active and its headroom is exhausted, so new work
// sent there would be shed with cause "memory" anyway.
func memPressured(r Replica) bool {
	if mr, ok := r.(memReporter); ok {
		if free, known := mr.MemFree(); known && free <= 0 {
			return true
		}
	}
	return false
}

// feedSeeder is implemented by replicas that can build deterministic
// random feeds for a model (in-process ones, which hold the graph). The
// front's HTTP seed mode uses it.
type feedSeeder interface {
	RandomFeeds(model string, seed uint64) (ramiel.Env, error)
}

// Local is an in-process replica: a serve.Server running in the same
// process as the front. This is single-host fleet mode (ramield
// -replicas N) and what the -race soak tests exercise.
type Local struct {
	name string
	srv  *serve.Server
}

// NewLocal wraps a serving runtime as a fleet replica.
func NewLocal(name string, srv *serve.Server) *Local {
	return &Local{name: name, srv: srv}
}

func (l *Local) Name() string { return l.name }

func (l *Local) Infer(ctx context.Context, model string, feeds ramiel.Env, noBatch bool) (ramiel.Env, serve.InferMeta, error) {
	return l.srv.Infer(ctx, model, feeds, noBatch)
}

// Healthy is always true in-process: the server either exists or the
// front does not hold it.
func (l *Local) Healthy() bool { return true }

func (l *Local) Ready() bool { return l.srv.Ready() }

func (l *Local) Load() (queued, inflight int64) { return l.srv.Load() }

func (l *Local) Workers() int { return l.srv.Workers() }

// MemFree reports the wrapped server's live memory headroom (memReporter);
// known is false when the server runs without a memory budget.
func (l *Local) MemFree() (bytes int64, known bool) { return l.srv.MemHeadroom() }

// RandomFeeds builds deterministic valid feeds for the model (feedSeeder).
func (l *Local) RandomFeeds(model string, seed uint64) (ramiel.Env, error) {
	return l.srv.RandomFeeds(model, seed)
}

// Package serve is the concurrent inference-serving runtime on top of the
// Ramiel compiler: a model registry with a compile-once program cache
// (including hyperclustered variants per batch size), a bounded worker pool
// executing cached plans through pooled ramiel.Sessions (warm arenas,
// request-context cancellation of in-flight runs), and a dynamic
// micro-batcher that coalesces single-sample requests into hyperclustered
// batch runs (Section III-E). The ramield daemon (cmd/ramield) exposes it
// over HTTP/JSON.
//
// The design point is the paper's: compilation is fast but not free, so a
// serving system compiles each (model, batch) combination exactly
// once and amortizes it across every subsequent request, while
// hyperclustering turns queued-up concurrent requests into intra-request
// parallelism instead of mere throughput.
//
// The runtime carries an always-on, lock-free observability layer (see
// internal/obs): per-model × per-stage latency histograms (batch assembly,
// queue wait, execute, end-to-end), cause-labeled error counters, per-op
// execution totals from the executor, and a lock-striped ring of recent and
// slow request spans. Handler exposes it over HTTP:
//
//	POST /v1/infer    — run inference (InferHandler, shared with the fleet
//	                    front; X-Request-ID echoes the span ID)
//	GET  /v1/models   — registered models
//	GET  /v1/stats    — counters, stage histograms, per-op time, arenas
//	GET  /v1/trace    — recent + slow request spans (?n= limits, ?slow=1)
//	GET  /v1/timeline — latest sampled execution timeline of a model as
//	                    Chrome trace-event JSON (Config.TimelineEvery > 0)
//	GET  /metrics     — Prometheus text exposition of all of the above
//	GET  /healthz     — liveness (the process serves HTTP)
//	GET  /readyz      — readiness (the preload set has compiled)
package serve

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	ramiel "repro"
)

// ErrNotRegistered marks requests for unknown models.
var ErrNotRegistered = errors.New("model not registered")

// ErrCompile marks failures to build or compile a model (or one of its
// batch variants), so the serving layer's cause-labeled error counters can
// separate compile failures from execution failures.
var ErrCompile = errors.New("compile failed")

// ModelSource lazily builds a model graph; registered per model name so
// the registry can (re)build graphs without holding every model in memory
// at registration time.
type ModelSource func() (*ramiel.Graph, error)

// programKey identifies one compiled program variant: the model and the
// micro-batch size it was hyperclustered for (1 = the base plan). The
// compile options and switched flag are fixed per registry.
type programKey struct {
	model string
	batch int
}

// compiled is one cached program variant with its warm sessions: the pool
// holds the program's *ramiel.Session values (see sessionSource), so
// dropping the program from the cache drops its sessions and their arenas
// with it.
type compiled struct {
	prog     *ramiel.Program
	sessions sync.Pool
}

// slot is one singleflight cache entry: the first caller to want its key
// builds the value; everyone else blocks on ready.
type slot[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

// flight is the singleflight cache behind both of the registry's caches,
// graphs and programs. A failed build is dropped, so the next call retries
// it.
type flight[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*slot[V]
}

// get returns key's value, building it with build when no slot holds it
// yet; hit reports whether one did, in which case get waits for that
// slot's build.
func (f *flight[K, V]) get(key K, build func() (V, error)) (v V, hit bool, err error) {
	f.mu.Lock()
	s, hit := f.m[key]
	if !hit {
		if f.m == nil {
			f.m = map[K]*slot[V]{}
		}
		s = &slot[V]{ready: make(chan struct{})}
		f.m[key] = s
	}
	f.mu.Unlock()
	if hit {
		<-s.ready
		return s.val, true, s.err
	}
	s.val, s.err = build()
	close(s.ready)
	if s.err != nil {
		f.mu.Lock()
		if f.m[key] == s {
			delete(f.m, key)
		}
		f.mu.Unlock()
	}
	return s.val, false, s.err
}

// peek returns key's value only if it is already built — never building or
// waiting. ok is false while the key is absent, still building, or failed.
func (f *flight[K, V]) peek(key K) (v V, ok bool) {
	f.mu.Lock()
	s := f.m[key]
	f.mu.Unlock()
	if s == nil {
		return v, false
	}
	select {
	case <-s.ready:
		return s.val, s.err == nil
	default:
		return v, false
	}
}

// keys lists the keys whose value is built and usable.
func (f *flight[K, V]) keys() []K {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []K
	for k, s := range f.m {
		select {
		case <-s.ready:
			if s.err == nil {
				out = append(out, k)
			}
		default:
		}
	}
	return out
}

// drop removes every key match accepts.
func (f *flight[K, V]) drop(match func(K) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	maps.DeleteFunc(f.m, func(k K, _ *slot[V]) bool { return match(k) })
}

// RegistryStats counts cache behavior; all fields are atomics, read via
// Snapshot.
type RegistryStats struct {
	Compiles      atomic.Int64
	CacheHits     atomic.Int64
	CacheMisses   atomic.Int64
	CompileMicros atomic.Int64
}

// RegistryStatsSnapshot is the JSON-friendly view of RegistryStats.
type RegistryStatsSnapshot struct {
	Compiles      int64 `json:"compiles"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	CompileMicros int64 `json:"compile_micros"`
}

// Registry is the model registry + program cache. Program is safe for
// concurrent use; duplicate compilations of the same key are deduplicated
// singleflight-style, so a burst of first requests for a model costs one
// compile.
type Registry struct {
	// opts and switched are fixed at construction, so the program cache
	// keys on (model, batch) alone.
	opts     ramiel.Options
	switched bool
	// tlEvery/tlRing, when tlEvery > 0, attach an execution-timeline flight
	// recorder to every program this registry compiles (set before the
	// first compile via EnableTimeline).
	tlEvery int
	tlRing  int

	mu      sync.Mutex
	sources map[string]ModelSource

	graphs   flight[string, *ramiel.Graph]
	programs flight[programKey, *compiled]

	stats RegistryStats
}

// NewRegistry creates a registry compiling with the given default options;
// switched selects switched hyperclustering for batch>1 variants.
func NewRegistry(opts ramiel.Options, switched bool) *Registry {
	return &Registry{opts: opts, switched: switched, sources: map[string]ModelSource{}}
}

// EnableTimeline makes every program the registry compiles from now on
// carry an execution-timeline flight recorder sampling one run in `every`
// into a ring of `ring` retained runs. Call before serving traffic —
// already-compiled programs are not retrofitted.
func (r *Registry) EnableTimeline(every, ring int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tlEvery, r.tlRing = every, ring
}

// Register adds a model under the given name. Re-registering a name
// replaces its source and drops any cached graph and programs for it.
func (r *Registry) Register(name string, src ModelSource) {
	r.mu.Lock()
	r.sources[name] = src
	r.mu.Unlock()
	r.graphs.drop(func(model string) bool { return model == name })
	r.programs.drop(func(k programKey) bool { return k.model == name })
}

// RegisterGraph registers an already-built graph.
func (r *Registry) RegisterGraph(name string, g *ramiel.Graph) {
	r.Register(name, func() (*ramiel.Graph, error) { return g, nil })
}

// RegisterZoo registers built-in zoo models by name with the given model
// config; with no names it registers the whole zoo.
func (r *Registry) RegisterZoo(cfg ramiel.ModelConfig, names ...string) error {
	if len(names) == 0 {
		names = ramiel.ModelNames()
	}
	for _, name := range names {
		g, err := ramiel.BuildModel(name, cfg)
		if err != nil {
			return fmt.Errorf("serve: register zoo: %w", err)
		}
		r.RegisterGraph(name, g)
	}
	return nil
}

// Models lists registered model names, sorted.
func (r *Registry) Models() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Sorted(maps.Keys(r.sources))
}

// Graph returns the model's built graph, building it at most once.
func (r *Registry) Graph(model string) (*ramiel.Graph, error) {
	g, _, err := r.graphs.get(model, func() (*ramiel.Graph, error) {
		r.mu.Lock()
		src, ok := r.sources[model]
		r.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("serve: model %q: %w", model, ErrNotRegistered)
		}
		g, err := src()
		if err != nil {
			return nil, fmt.Errorf("serve: building %q: %w: %w", model, ErrCompile, err)
		}
		return g, nil
	})
	return g, err
}

// Program returns the compiled program for (model, batch) under the
// registry's options, compiling it at most once per key. batch == 1 yields
// the base Ramiel plan; batch > 1 yields the hyperclustered variant derived
// from the base plan's clustering, so the base is compiled (once) too.
func (r *Registry) Program(model string, batch int) (*ramiel.Program, error) {
	c, err := r.entry(model, batch)
	if err != nil {
		return nil, err
	}
	return c.prog, nil
}

// entry is Program returning the cache entry, whose session pool the
// serving paths borrow from.
func (r *Registry) entry(model string, batch int) (*compiled, error) {
	if batch < 1 {
		return nil, fmt.Errorf("serve: batch must be >= 1, got %d", batch)
	}
	return r.get(model, batch, true)
}

// get is the program cache lookup. count separates client traffic (counted
// in hit/miss stats) from internal derivations — compiling a batch-n
// variant fetches the base program without pretending a request hit the
// cache.
func (r *Registry) get(model string, batch int, count bool) (*compiled, error) {
	c, hit, err := r.programs.get(programKey{model, batch}, func() (*compiled, error) {
		prog, err := r.compile(model, batch)
		if err != nil {
			return nil, err
		}
		return &compiled{prog: prog}, nil
	})
	switch {
	case count && hit:
		r.stats.CacheHits.Add(1)
	case count:
		r.stats.CacheMisses.Add(1)
	}
	return c, err
}

// compile builds the requested variant (called outside the registry lock).
func (r *Registry) compile(model string, batch int) (*ramiel.Program, error) {
	start := time.Now()
	defer func() {
		r.stats.Compiles.Add(1)
		r.stats.CompileMicros.Add(time.Since(start).Microseconds())
	}()
	prog, err := r.compileVariant(model, batch)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	every, ring := r.tlEvery, r.tlRing
	r.mu.Unlock()
	if every > 0 {
		// Every variant records independently: a batch-4 hypercluster run
		// and a batch-1 run have different lane structures and timelines.
		prog.EnableTimeline(every, ring)
	}
	return prog, nil
}

// compileVariant builds the base program (batch 1) or derives the
// hyperclustered variant from it.
func (r *Registry) compileVariant(model string, batch int) (*ramiel.Program, error) {
	if batch == 1 {
		g, err := r.Graph(model)
		if err != nil {
			return nil, err
		}
		prog, err := ramiel.CompileWithOptions(g, r.opts)
		if err != nil {
			return nil, fmt.Errorf("serve: compiling %q: %w: %w", model, ErrCompile, err)
		}
		return prog, nil
	}
	base, err := r.get(model, 1, false)
	if err != nil {
		return nil, err
	}
	prog, err := base.prog.Hypercluster(batch, r.switched)
	if err != nil {
		return nil, fmt.Errorf("serve: hyperclustering %q batch %d: %w: %w", model, batch, ErrCompile, err)
	}
	return prog, nil
}

// PeekGraph returns the model's graph only if it is already built —
// inspection endpoints must not force lazy ModelSource builds (or pin
// every registered model in memory). Nil when unbuilt or failed.
func (r *Registry) PeekGraph(model string) *ramiel.Graph {
	g, _ := r.graphs.peek(model)
	return g
}

// Peek returns the ready compiled program for (model, batch) without
// compiling, waiting, or touching the cache counters — for inspection
// endpoints that must not skew serving stats. Nil when absent, still
// compiling, or failed.
func (r *Registry) Peek(model string, batch int) *ramiel.Program {
	if c, ok := r.programs.peek(programKey{model, batch}); ok {
		return c.prog
	}
	return nil
}

// CachedBatches lists the batch sizes with a ready compiled program for the
// model, sorted ascending.
func (r *Registry) CachedBatches(model string) []int {
	var out []int
	for _, k := range r.programs.keys() {
		if k.model == model {
			out = append(out, k.batch)
		}
	}
	slices.Sort(out)
	return out
}

// Stats snapshots the cache counters.
func (r *Registry) Stats() RegistryStatsSnapshot {
	return RegistryStatsSnapshot{
		Compiles:      r.stats.Compiles.Load(),
		CacheHits:     r.stats.CacheHits.Load(),
		CacheMisses:   r.stats.CacheMisses.Load(),
		CompileMicros: r.stats.CompileMicros.Load(),
	}
}

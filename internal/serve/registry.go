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
// serving system compiles each (model, batch, options) combination exactly
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
//	                    (?variants=1 per-batch-variant op time,
//	                    ?calibration=1 cost-model calibration report)
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
	"sort"
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

// programKey identifies one compiled program variant: the model, the
// micro-batch size it was hyperclustered for (1 = the base plan), whether
// switched hyperclustering was used, and a fingerprint of the compile
// options.
type programKey struct {
	model    string
	batch    int
	switched bool
	opts     string
}

// optsFingerprint folds the compile options that change the produced plan
// into a comparable cache-key component. CostModel is an interface and
// cannot be fingerprinted; the registry assumes it is fixed per registry
// (it is — options are set once at construction).
func optsFingerprint(o ramiel.Options) string {
	co := "-"
	if o.CloneOptions != nil {
		co = fmt.Sprintf("%+v", *o.CloneOptions)
	}
	return fmt.Sprintf("p%t-c%t-m%t-f%t-co%s", o.Prune, o.Clone, o.DisableMerge, o.DisableFusion, co)
}

// programEntry is one singleflight cache slot: the first goroutine to want
// the key compiles; everyone else blocks on ready.
type programEntry struct {
	ready chan struct{}
	prog  *ramiel.Program
	err   error
	// sessions pools the program's warm *ramiel.Session values (see
	// sessionSource). The entry owns the pool, so dropping the program from
	// the cache drops its sessions and their arenas with it.
	sessions sync.Pool
}

// graphEntry is the singleflight slot for building a model's graph.
type graphEntry struct {
	ready chan struct{}
	graph *ramiel.Graph
	err   error
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
	opts     ramiel.Options
	switched bool
	// optsFP is the options fingerprint, precomputed so per-request key
	// construction stays allocation-free.
	optsFP string
	// tlEvery/tlRing, when tlEvery > 0, attach an execution-timeline flight
	// recorder to every program this registry compiles (set before the
	// first compile via EnableTimeline).
	tlEvery int
	tlRing  int

	mu       sync.Mutex
	sources  map[string]ModelSource
	graphs   map[string]*graphEntry
	programs map[programKey]*programEntry

	stats RegistryStats
}

// NewRegistry creates a registry compiling with the given default options;
// switched selects switched hyperclustering for batch>1 variants.
func NewRegistry(opts ramiel.Options, switched bool) *Registry {
	return &Registry{
		opts:     opts,
		switched: switched,
		optsFP:   optsFingerprint(opts),
		sources:  map[string]ModelSource{},
		graphs:   map[string]*graphEntry{},
		programs: map[programKey]*programEntry{},
	}
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
	defer r.mu.Unlock()
	r.sources[name] = src
	delete(r.graphs, name)
	for k := range r.programs {
		if k.model == name {
			delete(r.programs, k)
		}
	}
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
	out := make([]string, 0, len(r.sources))
	for name := range r.sources {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Graph returns the model's built graph, building it at most once.
func (r *Registry) Graph(model string) (*ramiel.Graph, error) {
	r.mu.Lock()
	e, ok := r.graphs[model]
	if !ok {
		src, registered := r.sources[model]
		if !registered {
			r.mu.Unlock()
			return nil, fmt.Errorf("serve: model %q: %w", model, ErrNotRegistered)
		}
		e = &graphEntry{ready: make(chan struct{})}
		r.graphs[model] = e
		r.mu.Unlock()
		e.graph, e.err = src()
		close(e.ready)
		if e.err != nil {
			// Drop failed builds so a transient source failure is
			// retryable, matching the program cache's policy.
			r.mu.Lock()
			if r.graphs[model] == e {
				delete(r.graphs, model)
			}
			r.mu.Unlock()
		}
	} else {
		r.mu.Unlock()
		<-e.ready
	}
	if e.err != nil {
		return nil, fmt.Errorf("serve: building %q: %w: %w", model, ErrCompile, e.err)
	}
	return e.graph, nil
}

// key builds the cache key for a (model, batch) variant under the
// registry's options.
func (r *Registry) key(model string, batch int) programKey {
	return programKey{model, batch, r.switched && batch > 1, r.optsFP}
}

// Program returns the compiled program for (model, batch) under the
// registry's options, compiling it at most once per key. batch == 1 yields
// the base Ramiel plan; batch > 1 yields the hyperclustered variant derived
// from the base plan's clustering, so the base is compiled (once) too.
func (r *Registry) Program(model string, batch int) (*ramiel.Program, error) {
	e, err := r.entry(model, batch)
	if err != nil {
		return nil, err
	}
	return e.prog, nil
}

// entry is Program returning the cache entry, whose session pool the
// serving paths borrow from.
func (r *Registry) entry(model string, batch int) (*programEntry, error) {
	if batch < 1 {
		return nil, fmt.Errorf("serve: batch must be >= 1, got %d", batch)
	}
	e := r.get(model, batch, true)
	return e, e.err
}

// get is the singleflight cache core. count separates client traffic
// (counted in hit/miss stats) from internal derivations — compiling a
// batch-n variant fetches the base program without pretending a request
// hit the cache.
func (r *Registry) get(model string, batch int, count bool) *programEntry {
	key := r.key(model, batch)
	r.mu.Lock()
	e, ok := r.programs[key]
	if ok {
		r.mu.Unlock()
		if count {
			r.stats.CacheHits.Add(1)
		}
		<-e.ready
		return e
	}
	e = &programEntry{ready: make(chan struct{})}
	r.programs[key] = e
	r.mu.Unlock()
	if count {
		r.stats.CacheMisses.Add(1)
	}

	e.prog, e.err = r.compile(model, batch)
	close(e.ready)
	if e.err != nil {
		// Drop failed entries so a transient failure is retryable.
		r.mu.Lock()
		if r.programs[key] == e {
			delete(r.programs, key)
		}
		r.mu.Unlock()
	}
	return e
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
	base := r.get(model, 1, false)
	if base.err != nil {
		return nil, base.err
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
	r.mu.Lock()
	e := r.graphs[model]
	r.mu.Unlock()
	if e == nil {
		return nil
	}
	select {
	case <-e.ready:
		if e.err == nil {
			return e.graph
		}
	default:
	}
	return nil
}

// Peek returns the ready compiled program for (model, batch) without
// compiling, waiting, or touching the cache counters — for inspection
// endpoints that must not skew serving stats. Nil when absent, still
// compiling, or failed.
func (r *Registry) Peek(model string, batch int) *ramiel.Program {
	r.mu.Lock()
	e := r.programs[r.key(model, batch)]
	r.mu.Unlock()
	if e == nil {
		return nil
	}
	select {
	case <-e.ready:
		if e.err == nil {
			return e.prog
		}
	default:
	}
	return nil
}

// CachedBatches lists the batch sizes with a ready compiled program for the
// model, sorted ascending.
func (r *Registry) CachedBatches(model string) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for k, e := range r.programs {
		if k.model != model {
			continue
		}
		select {
		case <-e.ready:
			if e.err == nil {
				out = append(out, k.batch)
			}
		default:
		}
	}
	sort.Ints(out)
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

// Command ramield is the Ramiel inference-serving daemon: it preloads zoo
// and/or ONNX-subset models, compiles each requested (model, batch) variant
// exactly once, and serves concurrent HTTP/JSON inference with dynamic
// micro-batching through hyperclustered plans (Section III-E). Requests
// execute on pooled ramiel.Sessions with warm per-session arenas, and the
// HTTP request context propagates into the run: a client that disconnects
// or exceeds its deadline aborts its in-flight execution instead of
// holding a worker slot to completion. A panicking kernel fails only its
// own request — the recovered panic comes back as a cause-labeled 500
// (stack logged, panics_total counted) while the worker pool keeps serving.
//
// Examples:
//
//	ramield -models squeezenet,googlenet
//	ramield -models bert -prune -max-batch 8 -flush 3ms -switched
//	ramield -load mymodel=path/to/model.onnx.json.gz -addr :9090
//	ramield -models squeezenet -replicas 4        # in-process fleet
//	ramield -replicas 0 -remotes http://10.0.0.1:8080,http://10.0.0.2:8080
//	ramield -replicas 2 -remotes http://b:8080 -hedge 20ms -breaker-threshold 3
//
//	curl localhost:8080/v1/models
//	curl -X POST localhost:8080/v1/infer -d '{"model":"squeezenet","seed":1}'
//	curl localhost:8080/v1/stats
//	curl localhost:8080/v1/trace?n=20        # recent request spans
//	curl localhost:8080/v1/trace?slow=1      # tail-latency offenders
//	curl 'localhost:8080/v1/timeline?model=squeezenet' > trace.json  # Perfetto
//	curl localhost:8080/metrics              # Prometheus text exposition
//	curl localhost:8080/readyz               # readiness (preload compiled)
//
// Batching: -max-batch caps every model's micro-batch and -flush its
// window. With -adaptive (the default) the flush value is only the window
// cap — the batcher picks the actual window per model from that model's
// live inter-arrival and execution histograms, flushing early at low load
// and growing batches under pressure; -adaptive=false restores the static
// flush timeout as a manual fallback.
//
// Fleet: the daemon is a fleet front whenever it runs more than one
// replica — -replicas N in-process runtimes, -remotes URLs of other
// ramields, or both (-replicas 0 -remotes ... is a pure front for a
// multi-host fleet). The front's API (see internal/fleet) is then served on
// -addr in place of the single-server API, with the same POST /v1/infer
// handler and replies: consistent-hash routing by model keeps each
// replica's program cache, prepacked weights and session arenas warm,
// queue-watermark spillover and memory-headroom steering move work off
// saturated replicas, and deadline-feasibility admission (-admission)
// rejects infeasible requests in microseconds with a 429, a cause label and
// a Retry-After drain estimate instead of queueing them to time out. Failed
// attempts retry on the next ring member up to -max-attempts (bounded by a
// fleet-wide retry budget), -hedge launches a speculative duplicate when a
// replica sits on a request, and -breaker-threshold consecutive failures
// eject a replica from routing until a half-open probe readmits it. Remote
// replicas are probed for health, load and memory headroom every second,
// backing off exponentially with jitter while they are down. One local
// replica and no remotes is the degenerate fleet: the server's own handler,
// no front.
//
// On SIGTERM/SIGINT the daemon drains: /readyz flips to 503 first (so load
// balancers stop routing), then the listener closes gracefully and
// in-flight requests run to completion before probing stops and the
// in-process runtimes shut down. Remote replicas drain on their own SIGTERM.
//
// Resource governance is on by default: the daemon detects the tightest
// cgroup/system memory limit and budgets 80% of it (-mem-budget overrides
// in bytes; negative disables), split across the in-process replicas. The
// budget drives
// memory-feasibility admission (429 cause "memory" with a Retry-After
// drain estimate), caps the session arenas (a run outgrowing the budget
// mid-flight fails alone with cause "memory" and its session is released
// to the GC), and feeds the /v1/stats headroom gauge fleet fronts route
// on. A stuck-run watchdog force-cancels any run exceeding -watchdog times
// the model's live p99 execution time (never under 2s), so a pathological
// input degrades one request instead of wedging a worker.
// Input hardening: request bodies are capped at -max-body (413 cause
// "body_too_large") and feeds containing NaN/Inf are rejected.
//
// Telemetry (stage-latency histograms, request tracing) is always on and
// costs no allocations per request; the watchdog, the adaptive batcher and
// the memory shed's Retry-After read its histograms. -timeline N samples every Nth plan
// execution into the per-op timeline flight recorder (sampled runs allocate,
// so it defaults to off); the latest sampled run is exported as Chrome
// trace-event JSON at GET /v1/timeline. -pprof additionally mounts
// net/http/pprof under /debug/pprof/ for live CPU and heap profiles.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	ramiel "repro"
	"repro/internal/fleet"
	"repro/internal/serve"
)

// replicaBudget resolves -mem-budget into each in-process replica's share:
// 0 detects 80% of the cgroup/system limit, negative disables governance,
// and the process budget is split evenly (each replica governs its own
// arenas).
func replicaBudget(flagBytes int64, replicas int) int64 {
	if flagBytes == 0 {
		flagBytes = serve.DetectMemoryBudget(0)
	}
	if flagBytes < 0 {
		return 0
	}
	return flagBytes / int64(max(replicas, 1))
}

// probeInterval is how often a healthy remote replica's /v1/stats is read
// (fleet.Remote backs off from it while the replica is down).
const probeInterval = time.Second

// settings is what the flags decide: the per-replica serving config, the
// front's config, and the replica set.
type settings struct {
	serve    serve.Config
	fleet    fleet.Config
	replicas int      // in-process
	remotes  []string // base URLs of other ramields
	zoo      []string // zoo models to register; empty = all
	img      int
	loads    string // name=path,... ONNX-subset files
}

// daemon is the assembled serving stack: the in-process runtimes, the
// remote replicas being probed, and the handler to serve — a fleet front
// over all of them, or the lone server's own API.
type daemon struct {
	servers []*serve.Server
	remotes []*fleet.Remote
	front   *fleet.Front // nil when one in-process server serves alone
	handler http.Handler
}

func newDaemon(st settings) (*daemon, error) {
	if st.replicas < 0 || st.replicas+len(st.remotes) == 0 {
		return nil, fmt.Errorf("-replicas %d with no -remotes: want at least one replica", st.replicas)
	}
	var loads [][2]string // name, path
	for _, pair := range strings.Split(st.loads, ",") {
		if pair == "" {
			continue
		}
		name, path, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("-load %q: want name=path", pair)
		}
		loads = append(loads, [2]string{name, path})
	}
	d := &daemon{}
	var replicas []fleet.Replica
	for i := 0; i < st.replicas; i++ {
		srv := serve.New(st.serve)
		d.servers = append(d.servers, srv)
		replicas = append(replicas, fleet.NewLocal("r"+strconv.Itoa(i), srv))
		if err := srv.RegisterZoo(ramiel.ModelConfig{ImageSize: st.img}, st.zoo...); err != nil {
			return nil, err
		}
		for _, l := range loads {
			g, err := ramiel.LoadModel(l[1])
			if err != nil {
				return nil, fmt.Errorf("loading %s: %v", l[1], err)
			}
			srv.RegisterGraph(l[0], g)
		}
	}
	for i, base := range st.remotes {
		r := fleet.NewRemote("remote"+strconv.Itoa(i)+"@"+base, base)
		d.remotes = append(d.remotes, r)
		replicas = append(replicas, r)
	}
	if len(replicas) == 1 && len(d.servers) == 1 {
		d.handler = d.servers[0].Handler()
		return d, nil
	}
	d.front = fleet.New(st.fleet, replicas...)
	d.handler = d.front.Handler()
	return d, nil
}

// beginDrain flips readiness off everywhere so health checks pull this
// instance out of rotation; requests keep being served.
func (d *daemon) beginDrain() {
	if d.front != nil {
		d.front.BeginDrain()
	}
	for _, srv := range d.servers {
		srv.BeginDrain()
	}
}

// close stops probing the remotes and shuts the in-process runtimes down.
func (d *daemon) close(ctx context.Context) {
	for _, r := range d.remotes {
		r.StopProbing()
	}
	for _, srv := range d.servers {
		if err := srv.Close(ctx); err != nil {
			log.Printf("runtime shutdown: %v", err)
		}
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ramield: ")

	addr := flag.String("addr", ":8080", "listen address")
	modelsFlag := flag.String("models", "squeezenet,googlenet",
		"comma-separated zoo models to serve ("+strings.Join(ramiel.ModelNames(), ", ")+"); empty for all")
	loads := flag.String("load", "", "comma-separated name=path pairs of ONNX-subset model files to serve")
	img := flag.Int("img", 32, "image size for zoo vision models")

	workers := flag.Int("workers", 0, "concurrent plan executions per replica (0 = GOMAXPROCS)")
	maxBatch := flag.Int("max-batch", 4, "micro-batch cap (1 disables coalescing)")
	flush := flag.Duration("flush", 2*time.Millisecond, "micro-batch flush window (the cap when -adaptive)")
	adaptive := flag.Bool("adaptive", true, "latency-aware flush windows from live queue/exec histograms (-flush becomes the cap)")
	replicasN := flag.Int("replicas", 1, "in-process serving replicas; with -remotes, or >1, the fleet front (routing + admission) is served on -addr")
	remotesFlag := flag.String("remotes", "", "comma-separated base URLs of other ramields to front as remote replicas (with -replicas 0: a pure front)")
	admission := flag.Bool("admission", true, "fleet mode: reject deadline-infeasible requests at enqueue")
	maxAttempts := flag.Int("max-attempts", 0, "fleet mode: total tries per request across replicas (0 = min(3, replicas); 1 disables retries)")
	hedge := flag.Duration("hedge", 0, "fleet mode: speculative second attempt on another replica after this wait (0 disables)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "fleet mode: consecutive replica failures that open its circuit breaker (0 = 5; negative disables)")
	memBudget := flag.Int64("mem-budget", 0, "memory budget in bytes for admission + arena caps, split across in-process replicas (0 = 80% of cgroup/system memory; negative disables)")
	watchdogF := flag.Float64("watchdog", 0, "kill runs exceeding this multiple of the model's live p99 exec time (0 = 20; negative disables)")
	maxBody := flag.Int64("max-body", 0, "POST /v1/infer request-body cap in bytes (0 = 8 MiB; negative disables)")
	switched := flag.Bool("switched", false, "use switched hyperclustering for batch plans")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-request deadline")
	prune := flag.Bool("prune", false, "compile with constant propagation + DCE")
	clone := flag.Bool("clone", false, "compile with limited task cloning")
	fusion := flag.Bool("fusion", true, "compile with operator fusion (BN folding, kernel epilogues, fused elementwise chains)")
	warm := flag.Bool("warm", true, "precompile batch-1 programs at startup")
	timelineEvery := flag.Int("timeline", 0, "sample every Nth execution into the timeline flight recorder (0 disables; exported at GET /v1/timeline)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	st := settings{
		serve: serve.Config{
			Workers:       *workers,
			MaxBatch:      *maxBatch,
			FlushTimeout:  *flush,
			AdaptiveBatch: *adaptive,
			Switched:      *switched,
			Deadline:      *deadline,
			TimelineEvery: *timelineEvery,
			Compile:       ramiel.Options{Prune: *prune, Clone: *clone, DisableFusion: !*fusion},

			MemBudgetBytes: replicaBudget(*memBudget, *replicasN),
			WatchdogFactor: *watchdogF,
			MaxBodyBytes:   *maxBody,
		},
		fleet: fleet.Config{
			NoAdmission:      !*admission,
			Deadline:         *deadline,
			MaxAttempts:      *maxAttempts,
			HedgeDelay:       *hedge,
			BreakerThreshold: *breakerThreshold,
			MaxBodyBytes:     *maxBody,
		},
		replicas: *replicasN,
		img:      *img,
		loads:    *loads,
	}
	if *modelsFlag != "" {
		st.zoo = strings.Split(*modelsFlag, ",")
	}
	for _, base := range strings.Split(*remotesFlag, ",") {
		if base = strings.TrimSpace(base); base != "" {
			st.remotes = append(st.remotes, base)
		}
	}
	if st.serve.MemBudgetBytes > 0 && st.replicas > 0 {
		log.Printf("memory budget: %d MiB per replica", st.serve.MemBudgetBytes>>20)
	}
	d, err := newDaemon(st)
	if err != nil {
		log.Fatal(err)
	}

	// /readyz stays 503 until every replica compiled its preload: a
	// deployment rolling the daemon knows not to route traffic at a
	// still-compiling instance. Without -warm there is no preload set to
	// wait for; ready as soon as we can listen.
	warmStart := time.Now()
	for _, srv := range d.servers {
		if !*warm {
			srv.MarkReady()
		} else if err := srv.Warm(); err != nil {
			log.Fatalf("warmup: %v", err)
		}
	}
	if *warm && len(d.servers) > 0 {
		log.Printf("warmed %d in-process replicas in %v", len(d.servers), time.Since(warmStart).Round(time.Millisecond))
	}
	for _, r := range d.remotes {
		r.StartProbing(probeInterval)
	}
	if d.front != nil {
		log.Printf("fleet front: %d in-process + %d remote replicas (admission %v)", len(d.servers), len(d.remotes), *admission)
	}
	var models []string // of the in-process replicas; a pure front holds none
	if len(d.servers) > 0 {
		models = d.servers[0].Registry().Models()
	}
	log.Printf("serving %v on %s (max-batch %d, flush %v, adaptive %v, fusion %v, timeline %d)",
		models, *addr, *maxBatch, *flush, *adaptive, *fusion, *timelineEvery)

	handler := d.handler
	if *pprofOn {
		// The API mux must not import pprof unconditionally (its blank
		// import mounts handlers on DefaultServeMux); register explicitly,
		// behind the flag, on our own mux.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Print("pprof enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Drain order matters: flip readiness first so health checks pull this
	// instance out of rotation, then close the listener gracefully (lets
	// in-flight requests finish), then stop probing and shut the runtimes
	// down.
	log.Print("shutting down: draining")
	d.beginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	d.close(shutdownCtx)
	fmt.Println("bye")
}

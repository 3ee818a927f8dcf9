package ramiel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"sync/atomic"
)

// ErrSessionBusy is returned by Session.Run when a second Run overlaps a
// running one on the same Session. A Session is a single-goroutine handle;
// create one Session per goroutine (they may all share one Program).
var ErrSessionBusy = errors.New("ramiel: session is running; a Session serves one goroutine — create one per goroutine")

// ErrInvalidFeeds marks feed-validation failures (missing, unknown or
// mis-shaped inputs) from ValidateFeeds/Session.Run, so callers — the
// serving layer's cause-labeled error counters in particular — can classify
// bad requests without string matching.
var ErrInvalidFeeds = errors.New("invalid feeds")

// sessionConfig is the resolved NewSession configuration.
type sessionConfig struct {
	arena   *Arena
	noArena bool
}

// SessionOption configures NewSession.
type SessionOption func(*sessionConfig)

// WithArena makes the session execute with the given caller-owned arena
// instead of creating its own. The session takes exclusive use of it while
// running; sharing one arena between concurrently-running sessions is a
// contract violation (see the Arena docs). WithArena(nil) is equivalent to
// WithoutArena.
func WithArena(a *Arena) SessionOption {
	return func(c *sessionConfig) {
		if a == nil {
			c.noArena = true
			c.arena = nil
			return
		}
		c.arena = a
		c.noArena = false
	}
}

// WithoutArena disables arena-backed execution: every kernel output is an
// ordinary heap allocation and nothing is recycled between runs. Useful for
// one-shot runs and allocation-behavior comparisons.
func WithoutArena() SessionOption {
	return func(c *sessionConfig) { c.noArena = true; c.arena = nil }
}

// Session is a reusable execution handle over a compiled Program: it
// bundles the run configuration — an arena for tensor recycling, on by
// default — so the execution API is one method, Session.Run, instead of a
// matrix of Run variants. What a run did is recorded on the Program: its
// op counters (OpTotals) and, when enabled, its sampled timeline
// (EnableTimeline).
//
// A Session is a single-goroutine handle: its state (arena free lists)
// carries across sequential runs, which is exactly what makes steady-state
// inference allocation-free, so two goroutines must not share one.
// Overlapping Run calls are detected and fail with ErrSessionBusy. The
// Program underneath stays shareable: any number of Sessions may run the
// same Program concurrently (the serving invariant).
type Session struct {
	prog  *Program
	arena *Arena
	// running detects concurrent misuse of the single-goroutine handle.
	running atomic.Bool
}

// NewSession creates an execution handle for the program. By default the
// session owns a fresh arena, so intermediate tensors are recycled across
// its runs; see WithArena and WithoutArena.
func (p *Program) NewSession(opts ...SessionOption) *Session {
	var cfg sessionConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	s := &Session{prog: p}
	switch {
	case cfg.noArena:
	case cfg.arena != nil:
		s.arena = cfg.arena
	default:
		s.arena = NewArena()
	}
	return s
}

// Run executes the program with the session's configuration and returns the
// graph outputs. Feeds are validated up front (see Program.ValidateFeeds),
// so a bad request fails with a clear error instead of a kernel failure
// deep inside a lane.
//
// ctx cancellation and deadlines are observed cooperatively between
// operator kernels and while lanes are blocked on cross-lane receives: a
// cancelled run unwinds within one kernel's duration, leaks no goroutines,
// leaves the session's arena consistent and immediately reusable, and
// returns ctx.Err().
func (s *Session) Run(ctx context.Context, feeds Env) (Env, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !s.running.CompareAndSwap(false, true) {
		return nil, ErrSessionBusy
	}
	defer s.running.Store(false)
	if err := s.prog.ValidateFeeds(feeds); err != nil {
		return nil, err
	}
	return s.prog.Plan.Execute(ctx, feeds, s.arena)
}

// Arena returns the session's arena, or nil when created WithoutArena.
// Useful for reading its stats; do not pass it to another running session.
func (s *Session) Arena() *Arena { return s.arena }

// Program returns the compiled program this session executes.
func (s *Session) Program() *Program { return s.prog }

// ValidateFeeds checks feeds against g's declared inputs and returns a
// single error naming every missing input, every shape mismatch, and every
// unknown feed name — the same checks a run performs, surfaced before any
// lane starts so a bad request never becomes a cryptic kernel error. It is
// the one feed validator: sessions apply it to the program they run, the
// serving layer to the model's graph before a request is admitted or joins
// a micro-batch. A nil return means a run of these feeds will find all its
// inputs. The happy path allocates nothing. Failures wrap ErrInvalidFeeds.
func ValidateFeeds(g *Graph, feeds Env) error {
	var missing, mismatched []string
	matched := 0
	for _, in := range g.Inputs {
		t, ok := feeds[in.Name]
		if !ok || t == nil {
			missing = append(missing, in.Name)
			continue
		}
		matched++
		if len(in.Shape) > 0 && !t.Shape().Equal(in.Shape) {
			mismatched = append(mismatched,
				fmt.Sprintf("%s: feed has shape %v, program declares %v", in.Name, t.Shape(), in.Shape))
		}
	}
	var unknown []string
	if len(feeds) > matched {
		declared := make(map[string]bool, len(g.Inputs))
		for _, in := range g.Inputs {
			declared[in.Name] = true
		}
		for name := range feeds {
			if !declared[name] {
				unknown = append(unknown, name)
			}
		}
		sort.Strings(unknown)
	}
	if missing == nil && mismatched == nil && unknown == nil {
		return nil
	}
	var parts []string
	if len(missing) > 0 {
		parts = append(parts, "missing inputs: "+strings.Join(missing, ", "))
	}
	if len(unknown) > 0 {
		parts = append(parts, "unknown inputs: "+strings.Join(unknown, ", "))
	}
	if len(mismatched) > 0 {
		parts = append(parts, "shape mismatches: "+strings.Join(mismatched, "; "))
	}
	return fmt.Errorf("ramiel: %w for %q: %s", ErrInvalidFeeds, g.Name, strings.Join(parts, "; "))
}

// ValidateFeeds is the package-level ValidateFeeds over the program's graph.
func (p *Program) ValidateFeeds(feeds Env) error { return ValidateFeeds(p.Graph, feeds) }

// CheckFiniteFeeds rejects feeds carrying NaN or ±Inf values. Non-finite
// inputs propagate silently through the fused kernels and poison every
// downstream activation, so serving layers scan feeds up front (opt-out via
// their config) and fail them as validation errors. The scan is branch-only
// over the feed data — no allocation on the accept path. The error wraps
// ErrInvalidFeeds for cause classification.
func CheckFiniteFeeds(feeds Env) error {
	for name, t := range feeds {
		if t == nil {
			continue
		}
		for i, v := range t.Data() {
			if v != v || v > math.MaxFloat32 || v < -math.MaxFloat32 {
				return fmt.Errorf("ramiel: %w: non-finite value in %q at index %d", ErrInvalidFeeds, name, i)
			}
		}
	}
	return nil
}

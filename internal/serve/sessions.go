package serve

import (
	"context"
	"errors"
	"runtime/debug"
	"sync/atomic"

	ramiel "repro"
	"repro/internal/tensor"
)

// sessionSource keeps warm ramiel.Sessions alive across requests in the
// sync.Pool each cached program variant's registry entry owns, so the
// sessions go when the program leaves the cache. A request borrows a
// session for the duration of its run, so a session (and the arena it
// owns) is never shared by two concurrent runs — the single-goroutine
// Session contract — yet its arena free lists survive from request to
// request, which is what turns steady-state serving's per-request
// intermediate tensors into free-list reuse instead of GC garbage. Under
// memory pressure the GC empties the sync.Pools and the sessions (with
// their held buffers) are simply collected.
//
// The request context is handed straight into Session.Run, so a client
// that gives up (HTTP disconnect, deadline) aborts its in-flight run
// cooperatively instead of wasting the worker slot; the aborted session's
// arena stays consistent and the session goes back into the pool.
//
// When the server runs arena-less (Config.NoArena) the pooled sessions are
// created WithoutArena — same borrowing discipline, plain heap execution.
// All session arenas report into one shared stats block so /v1/stats shows
// aggregate hit/miss/peak numbers for the whole server.
type sessionSource struct {
	arena bool
	stats tensor.ArenaStats
	// budgetDrops counts sessions discarded after an arena-budget denial
	// (see run): dropping the session hands its parked free lists to the
	// GC, which is exactly the relief a budget breach asks for.
	budgetDrops atomic.Int64
}

func newSessionSource(arena bool) *sessionSource {
	return &sessionSource{arena: arena}
}

// run executes the entry's program under ctx with a session borrowed from
// the entry's pool, making one when the pool is empty.
func (s *sessionSource) run(ctx context.Context, e *compiled, feeds ramiel.Env) (outs ramiel.Env, err error) {
	sess, _ := e.sessions.Get().(*ramiel.Session)
	if sess == nil {
		if s.arena {
			sess = e.prog.NewSession(ramiel.WithArena(tensor.NewArenaWithStats(&s.stats)))
		} else {
			sess = e.prog.NewSession(ramiel.WithoutArena())
		}
	}
	defer func() {
		if r := recover(); r != nil {
			// Kernel panics are already recovered inside the executor's
			// lane goroutines and surface as ordinary errors with the
			// arena unwound, so a panic crossing Run means session-level
			// state of unknown consistency: convert it to an error and
			// drop the session instead of pooling it; the next run
			// makes a fresh one.
			outs, err = nil, newPanicError(r, debug.Stack())
			return
		}
		if err != nil && errors.Is(err, tensor.ErrArenaBudget) {
			// A budget denial means the server is at its memory cap: the
			// run's arena is reconciled (the executor abandoned its
			// outstanding bytes) but re-pooling the session would keep its
			// parked free lists resident. Drop it so held memory shrinks
			// under exactly the pressure that tripped the budget.
			s.budgetDrops.Add(1)
			return
		}
		e.sessions.Put(sess)
	}()
	return sess.Run(ctx, feeds)
}

// snapshot reads the aggregate arena counters; ok is false when the server
// runs arena-less.
func (s *sessionSource) snapshot() (tensor.ArenaStatsSnapshot, bool) {
	if s == nil || !s.arena {
		return tensor.ArenaStatsSnapshot{}, false
	}
	return s.stats.Snapshot(), true
}

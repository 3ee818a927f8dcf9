package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is what the load generator needs from time, so the scheduler can be
// tested on a fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// reply is what a caller learned from one request.
type reply struct {
	err      error
	mismatch bool    // output differed from the reference
	info     reqInfo // server-reported stage times, zero in process
}

// outcome is one request of a loop: when it was due, when a caller started
// it, when it finished, and how it went.
type outcome struct {
	seq    int
	caller int
	due    time.Time
	// from is the instant latency is counted from: the due instant moved
	// later by the generator's own lateness — how long after both the due
	// instant and a caller becoming free the request was started. Waiting
	// for a free caller counts against the system; the generator
	// oversleeping does not. In a closed loop from == due == start.
	//
	// A Go timer on a mostly idle process fires from the netpoller, whose
	// timeout is whole milliseconds, so the lateness is spread over 0..1 ms
	// whatever the system under test does. nanosleep(2) would be sharper but
	// holds the caller's P until sysmon takes it back, which starves a
	// 2-core system under test (tried: req_p50_ms ×4).
	from    time.Time
	start   time.Time
	end     time.Time
	skipped bool // never issued: already past its limit when a caller got to it
	reply
}

func (o outcome) latency() time.Duration { return o.end.Sub(o.from) }
func (o outcome) genLate() time.Duration { return o.from.Sub(o.due) }

// ok reports whether the request counts as served: issued, no error, right
// output, and answered within limit.
func (o outcome) ok(limit time.Duration) bool {
	return !o.skipped && o.err == nil && !o.mismatch && o.latency() <= limit
}

// doFunc issues request seq on caller c and is told the instant its latency
// counts from.
type doFunc func(c, seq int, from time.Time) reply

// closedLoop runs callers goroutines, each issuing its next request as soon
// as the previous one returns, until dur has passed. It returns every
// outcome and the wall time from start to the last completion.
func closedLoop(clk clock, callers int, dur time.Duration, do doFunc) ([]outcome, time.Duration) {
	t0 := clk.Now()
	end := t0.Add(dur)
	var next atomic.Int64
	per := make([][]outcome, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				start := clk.Now()
				if !start.Before(end) {
					return
				}
				seq := int(next.Add(1) - 1)
				r := do(c, seq, start)
				per[c] = append(per[c], outcome{seq: seq, caller: c, due: start, from: start, start: start, end: clk.Now(), reply: r})
			}
		}(c)
	}
	wg.Wait()
	return flatten(per), clk.Now().Sub(t0)
}

// openLoop offers requests on a fixed schedule — request i is due at
// t0 + i/rate, for every i due before t0+dur — to a fixed pool of callers.
// A free caller claims the next request in order and sleeps until it is
// due; when all callers are busy the request waits and its latency, stamped
// from the due instant, includes that wait (see outcome.from). A request no caller reached
// within limit of its due time is recorded as skipped (a client that gave
// up), so an overloaded system cannot stretch the phase without bound.
// Every due request appears in the result exactly once.
func openLoop(clk clock, callers int, rate float64, dur, limit time.Duration, do doFunc) []outcome {
	total := int(dur.Seconds() * rate)
	interval := time.Duration(float64(time.Second) / rate)
	t0 := clk.Now()
	var next atomic.Int64
	per := make([][]outcome, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			idleFrom := t0
			for {
				seq := int(next.Add(1) - 1)
				if seq >= total {
					return
				}
				due := t0.Add(time.Duration(seq) * interval)
				now := clk.Now()
				if wait := due.Sub(now); wait > 0 {
					clk.Sleep(wait)
					now = clk.Now()
				}
				ready := due
				if idleFrom.After(ready) {
					ready = idleFrom
				}
				o := outcome{seq: seq, caller: c, due: due, from: due.Add(now.Sub(ready)), start: now}
				if now.Sub(due) > limit {
					o.skipped = true
					o.end = now
				} else {
					o.reply = do(c, seq, o.from)
					o.end = clk.Now()
				}
				per[c] = append(per[c], o)
				idleFrom = o.end
			}
		}(c)
	}
	wg.Wait()
	return flatten(per)
}

func flatten(per [][]outcome) []outcome {
	var out []outcome
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// loopStats condenses a loop's outcomes.
type loopStats struct {
	due      int     // requests the schedule offered
	served   int     // ok within the limit
	failed   int     // errors and output mismatches (ops_failed)
	skipped  int     // never issued
	latency  samples // of requests that completed without error, from due
	genLate  samples // generator lateness of issued requests
	infos    []reqInfo
	missRate float64 // (due − served) ÷ due
}

func summarize(out []outcome, limit time.Duration) loopStats {
	s := loopStats{due: len(out)}
	for _, o := range out {
		switch {
		case o.skipped:
			s.skipped++
			continue
		case o.err != nil || o.mismatch:
			s.failed++
		default:
			s.latency.add(o.latency())
		}
		s.genLate.add(o.genLate())
		s.infos = append(s.infos, o.info)
		if o.ok(limit) {
			s.served++
		}
	}
	if s.due > 0 {
		s.missRate = float64(s.due-s.served) / float64(s.due)
	}
	return s
}

package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock only moves when someone sleeps on it; oversleep is added to
// every sleep, the way a coarse timer wakes late.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	oversleep time.Duration
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Sleep(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d + f.oversleep)
	f.mu.Unlock()
}

// work advances the clock by the service time without the oversleep.
func (f *fakeClock) work(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

const ms = time.Millisecond

func bySeq(t *testing.T, out []outcome, total int) []outcome {
	t.Helper()
	if len(out) != total {
		t.Fatalf("%d outcomes for %d due requests", len(out), total)
	}
	got := make([]outcome, total)
	seen := make([]bool, total)
	for _, o := range out {
		if o.seq < 0 || o.seq >= total || seen[o.seq] {
			t.Fatalf("request %d missing from the schedule or recorded twice", o.seq)
		}
		seen[o.seq] = true
		got[o.seq] = o
	}
	return got
}

func TestOpenLoopKeepsItsSchedule(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	t0 := clk.Now()
	out := openLoop(clk, 1, 100, 100*ms, 30*ms, func(c, seq int, from time.Time) reply {
		clk.work(4 * ms)
		return reply{}
	})
	for i, o := range bySeq(t, out, 10) {
		if want := t0.Add(time.Duration(i) * 10 * ms); !o.due.Equal(want) || !o.start.Equal(want) {
			t.Errorf("request %d due %v started %v, want both %v", i, o.due.Sub(t0), o.start.Sub(t0), want.Sub(t0))
		}
		if o.latency() != 4*ms || o.genLate() != 0 {
			t.Errorf("request %d latency %v lateness %v, want 4ms and 0", i, o.latency(), o.genLate())
		}
	}
	if s := summarize(out, 30*ms); s.served != 10 || s.missRate != 0 || s.failed != 0 {
		t.Errorf("summary %+v, want 10 served and no miss", s)
	}
}

// A slow system: replies take 25 ms, requests are due every 10 ms, one
// caller. Latency is stamped from the due instant, so the wait for the busy
// caller counts; a request nobody reached within the limit is skipped, and
// every due request is either served or a miss.
func TestOpenLoopCountsTheWaitForACaller(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	issued := 0
	out := openLoop(clk, 1, 100, 100*ms, 30*ms, func(c, seq int, from time.Time) reply {
		issued++
		clk.work(25 * ms)
		return reply{}
	})
	got := bySeq(t, out, 10)
	if got[0].latency() != 25*ms {
		t.Errorf("request 0 latency %v, want 25ms", got[0].latency())
	}
	// Request 1 was due at 10 ms, the caller came free at 25 ms and the
	// reply landed at 50 ms: 40 ms from due, none of it the generator's.
	if got[1].latency() != 40*ms || got[1].genLate() != 0 || got[1].skipped {
		t.Errorf("request 1 latency %v lateness %v skipped %v, want 40ms, 0, false", got[1].latency(), got[1].genLate(), got[1].skipped)
	}
	// Request 3 was due at 30 ms and the caller came free at 75 ms.
	if !got[3].skipped {
		t.Error("request 3 was issued 45 ms after it was due, past the 30 ms limit")
	}
	s := summarize(out, 30*ms)
	if s.served != 1 {
		t.Errorf("%d served within 30 ms, want only the first", s.served)
	}
	if s.skipped+issued != 10 {
		t.Errorf("%d skipped + %d issued, want 10 in all", s.skipped, issued)
	}
	if want := float64(10-s.served) / 10; s.missRate != want {
		t.Errorf("miss rate %v, want %v: every due request is served or a miss", s.missRate, want)
	}
}

// A generator that wakes 2 ms late starts requests late; that lateness is
// reported and left out of the latency.
func TestOpenLoopAccountsForItsOwnLateness(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0), oversleep: 2 * ms}
	out := openLoop(clk, 1, 100, 50*ms, 30*ms, func(c, seq int, from time.Time) reply {
		clk.work(3 * ms)
		return reply{}
	})
	for i, o := range bySeq(t, out, 5) {
		if i == 0 {
			continue // due at the start: nothing to sleep for
		}
		if o.genLate() != 2*ms || o.latency() != 3*ms {
			t.Errorf("request %d lateness %v latency %v, want 2ms and 3ms", i, o.genLate(), o.latency())
		}
	}
}

func TestOpenLoopBoundsItsCallers(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	var mu sync.Mutex
	inflight, peak := 0, 0
	out := openLoop(clk, 3, 1000, 200*ms, 50*ms, func(c, seq int, from time.Time) reply {
		mu.Lock()
		inflight++
		if inflight > peak {
			peak = inflight
		}
		mu.Unlock()
		clk.work(2 * ms)
		mu.Lock()
		inflight--
		mu.Unlock()
		if c < 0 || c >= 3 {
			t.Errorf("caller %d outside the pool of 3", c)
		}
		return reply{}
	})
	bySeq(t, out, 200)
	if peak > 3 {
		t.Errorf("%d requests in flight with 3 callers", peak)
	}
}

func TestClosedLoop(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	out, wall := closedLoop(clk, 1, 100*ms, func(c, seq int, from time.Time) reply {
		clk.work(10 * ms)
		return reply{}
	})
	if len(out) != 10 || wall != 100*ms {
		t.Fatalf("%d requests in %v, want 10 in 100ms", len(out), wall)
	}
	for _, o := range out {
		if o.latency() != 10*ms || o.genLate() != 0 {
			t.Errorf("request %d latency %v lateness %v", o.seq, o.latency(), o.genLate())
		}
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	t0 := time.Unix(0, 0)
	mk := func(lat time.Duration, r reply) outcome {
		return outcome{due: t0, from: t0, start: t0, end: t0.Add(lat), reply: r}
	}
	out := []outcome{
		mk(5*ms, reply{}),
		mk(50*ms, reply{}),                 // late
		mk(5*ms, reply{mismatch: true}),    // wrong answer
		mk(5*ms, reply{err: errTest{}}),    // refused or failed
		{due: t0, from: t0, skipped: true}, // never issued
	}
	s := summarize(out, 10*ms)
	if s.due != 5 || s.served != 1 || s.failed != 2 || s.skipped != 1 || s.missRate != 0.8 {
		t.Errorf("summary %+v", s)
	}
	if len(s.latency) != 2 {
		t.Errorf("%d latencies, want the two clean replies", len(s.latency))
	}
}

type errTest struct{}

func (errTest) Error() string { return "test" }

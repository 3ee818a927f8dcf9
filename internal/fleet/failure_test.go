package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// orderedFakes builds n fakes named r0..rn-1 and returns them in the
// ring's preference order for model, so tests can address "the owner" and
// "the first backup" without depending on hash placement.
func orderedFakes(t *testing.T, n int, model string, workers int, exec time.Duration) ([]*fakeReplica, *Front, func(Config) *Front) {
	t.Helper()
	fakes := make([]*fakeReplica, n)
	reps := make([]Replica, n)
	names := make([]string, n)
	for i := range fakes {
		fakes[i] = newFake(fmt.Sprintf("r%d", i), workers, exec)
		reps[i] = fakes[i]
		names[i] = fakes[i].name
	}
	order := newRing(names).order(model, nil)
	ordered := make([]*fakeReplica, n)
	for i, idx := range order {
		ordered[i] = fakes[idx]
	}
	mk := func(cfg Config) *Front { return New(cfg, reps...) }
	return ordered, mk(Config{}), mk
}

func TestRetrySpillsToNextMemberOnReplicaFailure(t *testing.T) {
	fakes, _, mk := orderedFakes(t, 2, "m", 1, 0)
	owner, backup := fakes[0], fakes[1]
	front := mk(Config{MaxPending: 1})

	owner.fail(1, nil) // one transport failure: the replica "dies" mid-request
	outs, _, info, err := front.Infer(context.Background(), "m", nil, false)
	if err != nil {
		t.Fatalf("request failed despite a healthy backup: %v", err)
	}
	_ = outs
	if info.Replica != backup.name {
		t.Errorf("winning replica = %q, want backup %q", info.Replica, backup.name)
	}
	if info.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", info.Attempts)
	}
	if !info.Spilled {
		t.Error("a request retried off its owner must report Spilled")
	}
	if owner.calls.Load() != 1 || backup.calls.Load() != 1 {
		t.Errorf("calls owner=%d backup=%d, want 1/1", owner.calls.Load(), backup.calls.Load())
	}
	snap := front.SnapshotModel("m")
	if snap.Retries != 1 || snap.RetryWins != 1 {
		t.Errorf("retries=%d retry_wins=%d, want 1/1", snap.Retries, snap.RetryWins)
	}
	// The retry rode inside the original request's pending slot: the
	// MaxPending=1 window was never violated and drains to zero.
	if snap.Admitted != 1 || snap.Pending != 0 {
		t.Errorf("admitted=%d pending=%d, want 1/0", snap.Admitted, snap.Pending)
	}
}

func TestNonRetryableErrorIsNotRetried(t *testing.T) {
	fakes, front, _ := orderedFakes(t, 2, "m", 1, 0)
	owner, backup := fakes[0], fakes[1]

	appErr := &serve.Refusal{Status: http.StatusBadRequest, Cause: "validation", Err: errors.New("bad feeds")}
	owner.fail(1, appErr)
	_, _, _, err := front.Infer(context.Background(), "m", nil, false)
	var re *serve.Refusal
	if !errors.As(err, &re) || re.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want the replica's 400 back unchanged", err)
	}
	if backup.calls.Load() != 0 {
		t.Errorf("backup saw %d calls — a 4xx must not burn a retry", backup.calls.Load())
	}
	if snap := front.SnapshotModel("m"); snap.Retries != 0 {
		t.Errorf("retries = %d, want 0", snap.Retries)
	}
}

func TestBreakerEjectsAndRecovers(t *testing.T) {
	fakes, _, mk := orderedFakes(t, 2, "m", 1, 0)
	owner, backup := fakes[0], fakes[1]
	front := mk(Config{BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond, MaxAttempts: 1})

	// Two consecutive transport failures trip the owner's breaker.
	owner.fail(1000, nil)
	for i := 0; i < 2; i++ {
		if _, _, _, err := front.Infer(context.Background(), "m", nil, false); !errors.Is(err, ErrInjected) {
			t.Fatalf("request %d: err = %v, want injected transport error (MaxAttempts 1)", i, err)
		}
	}
	ownerCalls := owner.calls.Load()

	// Open breaker: traffic routes around the owner without retries.
	for i := 0; i < 3; i++ {
		_, _, info, err := front.Infer(context.Background(), "m", nil, false)
		if err != nil {
			t.Fatalf("request with open breaker failed: %v", err)
		}
		if info.Replica != backup.name || !info.Spilled {
			t.Fatalf("request %d routed to %q (spilled %v), want backup %q via breaker ejection",
				i, info.Replica, info.Spilled, backup.name)
		}
	}
	if got := owner.calls.Load(); got != ownerCalls {
		t.Errorf("owner saw %d extra calls while its breaker was open", got-ownerCalls)
	}
	var ownerSnap ReplicaSnapshot
	for _, rs := range front.Snapshot().Replicas {
		if rs.Name == owner.name {
			ownerSnap = rs
		}
	}
	if ownerSnap.Breaker != "open" || ownerSnap.BreakerOpens != 1 {
		t.Errorf("owner breaker snapshot = %q/%d, want open/1", ownerSnap.Breaker, ownerSnap.BreakerOpens)
	}

	// After the cooldown the half-open probe re-admits a healthy owner.
	owner.fail(0, nil)
	time.Sleep(60 * time.Millisecond)
	_, _, info, err := front.Infer(context.Background(), "m", nil, false)
	if err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if info.Replica != owner.name {
		t.Fatalf("post-cooldown request routed to %q, want the owner %q as half-open probe", info.Replica, owner.name)
	}
	_, _, info, err = front.Infer(context.Background(), "m", nil, false)
	if err != nil || info.Replica != owner.name || info.Spilled {
		t.Errorf("after probe success traffic should be home: replica=%q spilled=%v err=%v",
			info.Replica, info.Spilled, err)
	}
}

func TestHedgeRescuesUnresponsiveReplica(t *testing.T) {
	fakes, _, mk := orderedFakes(t, 2, "m", 1, 0)
	owner, backup := fakes[0], fakes[1]
	front := mk(Config{HedgeDelay: 5 * time.Millisecond})

	owner.block = make(chan struct{}) // owner accepts the request and goes silent
	t0 := time.Now()
	_, _, info, err := front.Infer(context.Background(), "m", nil, false)
	took := time.Since(t0)
	if err != nil {
		t.Fatalf("hedged request failed: %v", err)
	}
	if info.Replica != backup.name || info.Attempts != 2 {
		t.Errorf("won by %q in %d attempts, want backup %q in 2", info.Replica, info.Attempts, backup.name)
	}
	if took > 2*time.Second {
		t.Errorf("hedge took %v — the silent owner's deadline leaked into the request", took)
	}
	snap := front.SnapshotModel("m")
	if snap.Hedges != 1 || snap.HedgeWins != 1 {
		t.Errorf("hedges=%d hedge_wins=%d, want 1/1", snap.Hedges, snap.HedgeWins)
	}
	close(owner.block)
}

func TestRetryBudgetBoundsAmplification(t *testing.T) {
	fakes, _, mk := orderedFakes(t, 2, "m", 1, 0)
	owner := fakes[0]
	// No refill (RetryBudget < 0) and breakers off: only the initial burst
	// (MaxPending/4 = 4 tokens) funds retries, then failures surface.
	front := mk(Config{MaxPending: 16, RetryBudget: -1, BreakerThreshold: -1})

	owner.fail(1<<30, nil)
	var okN, failN int
	for i := 0; i < 6; i++ {
		if _, _, _, err := front.Infer(context.Background(), "m", nil, false); err == nil {
			okN++
		} else if errors.Is(err, ErrInjected) {
			failN++
		} else {
			t.Fatalf("unexpected error class: %v", err)
		}
	}
	if okN != 4 || failN != 2 {
		t.Errorf("ok=%d fail=%d, want 4 budget-funded retries then surfaced failures", okN, failN)
	}
	snap := front.SnapshotModel("m")
	if snap.Retries != 4 || snap.BudgetExhausted != 2 {
		t.Errorf("retries=%d budget_exhausted=%d, want 4/2", snap.Retries, snap.BudgetExhausted)
	}
}

// TestMembershipFlapDoesNotStrand covers the satellite case: a replica
// flapping out of membership must neither kill its in-flight requests nor
// wedge the pending window.
func TestMembershipFlapDoesNotStrand(t *testing.T) {
	fakes, front, _ := orderedFakes(t, 2, "m", 1, 0)
	owner, backup := fakes[0], fakes[1]

	owner.block = make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, _, err := front.Infer(context.Background(), "m", nil, false)
		done <- err
	}()
	for i := 0; front.SnapshotModel("m").Pending == 0; i++ {
		if i > 1000 {
			t.Fatal("first request never became pending")
		}
		time.Sleep(time.Millisecond)
	}

	// Owner flaps out: new traffic spills, the in-flight request lives on.
	owner.healthy.Store(false)
	_, _, info, err := front.Infer(context.Background(), "m", nil, false)
	if err != nil || info.Replica != backup.name {
		t.Fatalf("during flap routed to %q (err %v), want backup %q", info.Replica, err, backup.name)
	}

	close(owner.block)
	if err := <-done; err != nil {
		t.Fatalf("in-flight request stranded by membership flap: %v", err)
	}

	// Owner flaps back: traffic returns, nothing is stuck pending.
	owner.healthy.Store(true)
	_, _, info, err = front.Infer(context.Background(), "m", nil, false)
	if err != nil || info.Replica != owner.name {
		t.Errorf("after flap-back routed to %q (err %v), want owner %q", info.Replica, err, owner.name)
	}
	if got := front.SnapshotModel("m").Pending; got != 0 {
		t.Errorf("pending gauge = %d after flap sequence, want 0", got)
	}
}

// TestShedCarriesRetryAfter asserts the admission satellite: 429 sheds
// tell the client when to come back, derived from the predicted wait.
func TestShedCarriesRetryAfter(t *testing.T) {
	f := newFake("r0", 1, 0)
	f.block = make(chan struct{})
	front := New(Config{MaxPending: 1}, f)
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()

	body := `{"model":"m","inputs":{"x":{"shape":[1],"data":[1]}}}`
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	for i := 0; front.SnapshotModel("m").Pending == 0; i++ {
		if i > 1000 {
			t.Fatal("first request never became pending")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 shed carried no Retry-After header")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", ra)
	}
	close(f.block)
	<-done
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"transport", &TransportError{Replica: "r0", Err: errors.New("connection refused")}, true},
		{"wrapped transport", fmt.Errorf("attempt 1: %w", &TransportError{Replica: "r0", Err: ErrInjected}), true},
		{"replica 500", &serve.Refusal{Status: 500, Err: errors.New("boom")}, true},
		{"replica 503", &serve.Refusal{Status: 503, Err: errors.New("draining")}, true},
		{"replica 400", &serve.Refusal{Status: 400, Err: errors.New("bad feeds")}, false},
		{"replica 404", &serve.Refusal{Status: 404, Err: errors.New("no model")}, false},
		{"reply past the cap", &serve.Refusal{Status: 502, Cause: serve.CauseReplyTooLarge.String(), Err: errors.New("too large")}, false},
		{"shutdown", serve.ErrShutdown, true},
		{"batcher closed", serve.ErrBatcherClosed, true},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"generic", errors.New("kernel exploded"), false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(3, time.Minute)
	b.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		b.onFailure()
		if !b.routable() {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
	}
	b.onFailure() // third consecutive failure trips it
	if b.routable() {
		t.Fatal("breaker still routable after hitting the threshold")
	}
	if st, opens := b.snapshot(); st != "open" || opens != 1 {
		t.Fatalf("snapshot = %s/%d, want open/1", st, opens)
	}

	// Cooldown elapses: exactly one half-open probe slot.
	now = now.Add(time.Minute)
	if !b.routable() {
		t.Fatal("breaker not routable after cooldown")
	}
	if ok, probe := b.claim(); !ok || !probe {
		t.Fatalf("first half-open claim = (%v, %v), want a consumed probe slot", ok, probe)
	}
	if b.routable() {
		t.Fatal("routable while the half-open probe slot is taken")
	}
	if ok, _ := b.claim(); ok {
		t.Fatal("second concurrent half-open probe admitted")
	}

	// Probe fails: re-open, cooldown restarts.
	b.onFailure()
	if b.routable() {
		t.Fatal("routable immediately after a failed half-open probe")
	}
	if st, opens := b.snapshot(); st != "open" || opens != 2 {
		t.Fatalf("snapshot = %s/%d, want open/2", st, opens)
	}

	// Second probe succeeds: closed, full threshold restored.
	now = now.Add(time.Minute)
	if !b.routable() {
		t.Fatal("breaker not routable after second cooldown")
	}
	if ok, probe := b.claim(); !ok || !probe {
		t.Fatal("probe slot unavailable after second cooldown")
	}
	b.onSuccess()
	if st, _ := b.snapshot(); st != "closed" {
		t.Fatalf("state after successful probe = %s, want closed", st)
	}
	b.onFailure()
	b.onFailure()
	if !b.routable() {
		t.Fatal("streak not reset by the successful probe")
	}

	// A refunded claim frees the slot for the next request.
	b.onFailure() // trips again (2 + 1)
	now = now.Add(time.Minute)
	if ok, probe := b.claim(); !ok || !probe {
		t.Fatal("claim after third cooldown refused")
	}
	b.refund()
	if ok, probe := b.claim(); !ok || !probe {
		t.Fatal("refunded probe slot not reusable")
	}
}

// TestCancelledAttemptRefundsProbeSlot is the regression for the probe
// leak: an attempt that claimed the half-open slot and then ended with
// cancellation or deadline expiry (hedge loser cancelled by the winner,
// client disconnect) carries no health signal, but must hand the slot
// back — half-open has no cooldown escape, so a leaked slot ejects the
// replica from routing until process restart.
func TestCancelledAttemptRefundsProbeSlot(t *testing.T) {
	front := New(Config{BreakerThreshold: 1, BreakerCooldown: time.Minute}, newFake("r0", 1, 0))
	b := front.breakers[0]
	now := time.Unix(0, 0)
	b.now = func() time.Time { return now }

	b.onFailure() // threshold 1: trips immediately
	now = now.Add(time.Minute)
	if ok, probe := b.claim(); !ok || !probe {
		t.Fatal("half-open claim refused after cooldown")
	}
	front.noteAttempt(0, true, context.Canceled)
	if ok, probe := b.claim(); !ok || !probe {
		t.Fatal("cancelled probe leaked the half-open slot: replica ejected until restart")
	}
	front.noteAttempt(0, true, context.DeadlineExceeded)
	if ok, _ := b.claim(); !ok {
		t.Fatal("deadline-expired probe leaked the half-open slot")
	}
	// An attempt that never held the slot must not refund someone else's
	// claim (it was launched while the breaker was closed).
	front.noteAttempt(0, false, context.Canceled)
	if ok, _ := b.claim(); ok {
		t.Fatal("non-probe cancellation refunded a probe slot it did not hold")
	}
}

// TestTriedSetWideFleet pins the retry bitset past the 64-replica word
// boundary the old uint64 mask silently truncated at.
func TestTriedSetWideFleet(t *testing.T) {
	var nilSet triedSet
	if nilSet.has(5) {
		t.Error("nil triedSet reported a member")
	}
	s := newTriedSet(130)
	for _, i := range []int{0, 63, 64, 65, 127, 128, 129} {
		if s.has(i) {
			t.Errorf("fresh set already contains %d", i)
		}
		s.add(i)
		if !s.has(i) {
			t.Errorf("added %d but has() = false", i)
		}
	}
	if s.has(1) || s.has(66) {
		t.Error("neighbors of added indices leaked into the set")
	}
}

// TestRetryRoutingBeyond64Replicas drives the same fix through route():
// with every replica but index 65 already tried, a retry must land on 65
// (the old mask ignored indices >= 64, re-routing retries onto replicas
// that had already failed the request), and with all replicas tried no
// candidate remains.
func TestRetryRoutingBeyond64Replicas(t *testing.T) {
	const n = 70
	reps := make([]Replica, n)
	for i := range reps {
		reps[i] = newFake(fmt.Sprintf("r%02d", i), 1, 0)
	}
	front := New(Config{}, reps...)

	tried := newTriedSet(n)
	for i := 0; i < n; i++ {
		if i != 65 {
			tried.add(i)
		}
	}
	idx, _, _, ok := front.route("m", tried)
	if !ok || idx != 65 {
		t.Fatalf("route with all but replica 65 tried = (%d, %v), want the one untried replica", idx, ok)
	}
	tried.add(65)
	if _, _, _, ok := front.route("m", tried); ok {
		t.Fatal("route found a candidate with every replica already tried")
	}
}

// TestQueueFullRetryAfterDerivedFromBacklog asserts the queue-full
// Retry-After basis: the pending bound sheds before routing, so the wait
// estimate must come from the live p50 histogram and the backlog, not a
// flat 1s floor that invites retries into a saturated fleet.
func TestQueueFullRetryAfterDerivedFromBacklog(t *testing.T) {
	f := newFake("r0", 1, 0)
	f.block = make(chan struct{})
	front := New(Config{MaxPending: 1}, f)
	front.model("m").exec.Record(3 * time.Second) // live p50 ~3s

	done := make(chan struct{})
	go func() {
		defer close(done)
		front.Infer(context.Background(), "m", nil, false)
	}()
	for i := 0; front.SnapshotModel("m").Pending == 0; i++ {
		if i > 1000 {
			t.Fatal("first request never became pending")
		}
		time.Sleep(time.Millisecond)
	}

	_, _, _, err := front.Infer(context.Background(), "m", nil, false)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if _, _, wait := serve.ReplyFor(err); wait < 2*time.Second {
		t.Errorf("queue-full Retry-After basis = %v, want the 3s-p50 backlog, not the 1s floor", wait)
	}
	close(f.block)
	<-done
}

func TestRetryBudgetAccounting(t *testing.T) {
	b := newRetryBudget(0.5, 2) // 2-token burst, half a token per admit
	if !b.take() || !b.take() {
		t.Fatal("cold-start burst not available")
	}
	if b.take() {
		t.Fatal("take succeeded on an empty bucket")
	}
	b.deposit() // +0.5
	if b.take() {
		t.Fatal("take succeeded on half a token")
	}
	b.deposit() // 1.0
	if !b.take() {
		t.Fatal("take failed with a full token banked")
	}
	for i := 0; i < 100; i++ {
		b.deposit()
	}
	if got := b.tokens.Load(); got != 2000 {
		t.Errorf("bucket = %d millitokens after overdeposit, want capped at 2000", got)
	}
}

func TestProbeDelaySchedule(t *testing.T) {
	const iv = time.Second
	center := func(fails int) time.Duration { return probeDelay(iv, fails, 0.5) }
	if center(0) != iv {
		t.Errorf("healthy delay = %v, want %v", center(0), iv)
	}
	if center(1) != 2*iv || center(2) != 4*iv {
		t.Errorf("backoff = %v/%v, want 2s/4s", center(1), center(2))
	}
	if center(4) != 16*iv || center(50) != 16*iv {
		t.Errorf("cap broken: fails=4 %v fails=50 %v, want 16s both", center(4), center(50))
	}
	// Jitter stays within ±25%.
	for _, j := range []float64{0, 0.25, 0.75, 0.999} {
		d := probeDelay(iv, 3, j)
		if d < 6*time.Second || d > 10*time.Second {
			t.Errorf("probeDelay(1s, 3, %v) = %v, outside 8s ± 25%%", j, d)
		}
	}
}

// TestProbeBackoffAgainstDeadHost is the integration side of the probe
// satellite: against a dead endpoint, the backoff loop must make far fewer
// probes than the fixed ticker it replaced would have.
func TestProbeBackoffAgainstDeadHost(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	rem := NewRemote("r0", ts.URL)
	defer ts.Close()

	const interval = 5 * time.Millisecond
	rem.StartProbing(interval)
	time.Sleep(60 * time.Millisecond)
	rem.StopProbing()
	got := hits.Load()
	// A fixed ticker would land ~12 probes in 60ms of 5ms intervals; the
	// doubling schedule (5, 10, 20, 40, ...) fits at most ~5. Allow slack
	// for scheduler jitter.
	if got > 8 {
		t.Errorf("dead host probed %d times in 60ms at a 5ms base interval — backoff is not backing off", got)
	}
	if got < 1 {
		t.Error("prober never probed at all")
	}
	if rem.Healthy() {
		t.Error("dead host still marked healthy")
	}
}

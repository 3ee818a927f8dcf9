package obs

import (
	"sync"
	"testing"
)

func TestTraceRingSizing(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {256, 256}, {300, 512},
	} {
		r := NewTraceRing(tc.ask)
		if len(r.slots) != tc.want {
			t.Errorf("NewTraceRing(%d) has %d slots, want %d", tc.ask, len(r.slots), tc.want)
		}
	}
}

func TestTraceRingRecordAndSnapshot(t *testing.T) {
	r := NewTraceRing(4)
	if got := r.Snapshot(0); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	for i := uint64(1); i <= 6; i++ {
		r.Record(Span{ID: i, Model: "m"})
	}
	// Capacity 4, 6 recorded: the ring holds 3..6, newest first.
	got := r.Snapshot(0)
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for i, want := range []uint64{6, 5, 4, 3} {
		if got[i].ID != want {
			t.Errorf("span[%d].ID = %d, want %d", i, got[i].ID, want)
		}
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d, want 4", r.Len())
	}
	// n caps the result.
	if got := r.Snapshot(2); len(got) != 2 || got[0].ID != 6 || got[1].ID != 5 {
		t.Errorf("Snapshot(2) = %v", got)
	}
}

// TestTraceRingConcurrent hammers Record and Snapshot from many goroutines;
// under -race this proves the striped locking, and every snapshotted span
// must be internally consistent (ID pins the expected model string).
func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(64)
	const goroutines = 8
	const perG = 2000
	models := []string{"alpha", "beta", "gamma", "delta"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapErr error
	var snapMu sync.Mutex
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				for _, sp := range r.Snapshot(0) {
					if sp.Model != models[sp.ID%uint64(len(models))] {
						snapMu.Lock()
						snapErr = &tornSpanError{sp.ID, sp.Model}
						snapMu.Unlock()
						return
					}
				}
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := uint64(g*perG + i)
				r.Record(Span{ID: id, Model: models[id%uint64(len(models))]})
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want 64", r.Len())
	}
}

type tornSpanError struct {
	id    uint64
	model string
}

func (e *tornSpanError) Error() string {
	return "torn span: id/model mismatch"
}

// TestTraceRecordAllocates pins Record to zero allocations (the span is
// copied by value into a preallocated slot).
func TestTraceRecordAllocates(t *testing.T) {
	r := NewTraceRing(16)
	sp := Span{ID: 1, Model: "m", Batch: 1, TotalNs: 1000}
	if n := testing.AllocsPerRun(1000, func() { r.Record(sp) }); n != 0 {
		t.Errorf("TraceRing.Record allocates %.1f per op, want 0", n)
	}
}

func TestMergeOpTotals(t *testing.T) {
	a := []OpTotal{{Op: "Conv", Count: 10, TotalNs: 1000}, {Op: "Add", Count: 5, TotalNs: 50}}
	b := []OpTotal{{Op: "Conv", Count: 2, TotalNs: 500}, {Op: "MatMul", Count: 1, TotalNs: 200}}
	got := MergeOpTotals(a, b)
	want := []OpTotal{
		{Op: "Conv", Count: 12, TotalNs: 1500},
		{Op: "MatMul", Count: 1, TotalNs: 200},
		{Op: "Add", Count: 5, TotalNs: 50},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if MergeOpTotals() != nil {
		t.Error("empty merge should be nil")
	}
	if MergeOpTotals([]OpTotal{{Op: "X", Count: 0, TotalNs: 9}}) != nil {
		t.Error("zero-count entries should be dropped")
	}
	if (OpTotal{Op: "Conv", Count: 4, TotalNs: 100}).MeanNs() != 25 {
		t.Error("MeanNs wrong")
	}
	if (OpTotal{}).MeanNs() != 0 {
		t.Error("MeanNs of empty should be 0")
	}
}

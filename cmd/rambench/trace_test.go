package main

import (
	"math"
	"testing"
)

func TestCoveredCountsSharedInstantsOnce(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{"none", 0, 100, nil, 0},
		{"apart", 0, 100, [][2]int64{{10, 20}, {40, 70}}, 40},
		{"overlapping", 0, 100, [][2]int64{{10, 50}, {30, 60}}, 50},
		{"nested", 0, 100, [][2]int64{{10, 90}, {20, 30}}, 80},
		{"unsorted", 0, 100, [][2]int64{{40, 70}, {10, 20}}, 40},
		{"clipped to the parent", 20, 60, [][2]int64{{0, 30}, {50, 100}}, 20},
	} {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

// A span's self time is its length minus what its children cover.
func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	for _, c := range []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 10, End: 90}}, 20},
		{"two apart", []span{{Start: 10, End: 30}, {Start: 50, End: 80}}, 50},
		{"two overlapping", []span{{Start: 10, End: 60}, {Start: 30, End: 80}}, 30},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// A chain of nested calls: every layer gets what its callee leaves it.
func TestBudgetOfNestedCalls(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Layer: "gen", Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Layer: "wire", Name: "roundtrip", Start: 10, End: 90},
		{ID: 3, Parent: 2, Req: 1, Layer: "serve", Name: "Handler", Start: 20, End: 80},
		{ID: 4, Parent: 3, Req: 1, Layer: "exec", Name: "exec", Start: 50, End: 80},
	}
	lines, total, _ := budget(spans, "request")
	got := map[string]float64{}
	for _, l := range lines {
		got[l.Layer] = l.Ms * 1e6
	}
	for layer, want := range map[string]float64{"gen": 20, "wire": 20, "serve": 30, "exec": 30} {
		if math.Abs(got[layer]-want) > 1e-9 {
			t.Errorf("%s gets %v ns, want %v", layer, got[layer], want)
		}
	}
	if math.Abs(total*1e6-100) > 1e-9 {
		t.Errorf("layers add up to %v ns, want 100", total*1e6)
	}
}

// Two lanes run ops side by side under one Session.Run: the ops layer gets
// the time either lane was in an op, the executor the rest, and the layers
// add up to the request.
func TestBudgetMergesParallelLanes(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Layer: "rambench", Name: "par_run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Layer: "exec", Name: "Session.Run", Start: 0, End: 100},
		{ID: 3, Parent: 2, Req: 1, Layer: "ops", Name: "Conv a", Start: 10, End: 60}, // lane 0
		{ID: 4, Parent: 2, Req: 1, Layer: "ops", Name: "Conv b", Start: 30, End: 80}, // lane 1
	}
	lines, total, n := budget(spans, "par_run")
	if n != 1 {
		t.Fatalf("budget over %d requests, want 1", n)
	}
	got := map[string]float64{}
	for _, l := range lines {
		got[l.Layer] = l.Ms * 1e6
	}
	if got["ops"] != 70 || got["exec"] != 30 || got["rambench"] != 0 {
		t.Errorf("budget %v, want ops 70 exec 30 rambench 0", got)
	}
	if math.Abs(total*1e6-100) > 1e-9 {
		t.Errorf("layers add up to %v ns, want the request's 100", total*1e6)
	}
}

// The budget is averaged over the middle half of requests by latency, so
// one slow request does not move it.
func TestBudgetIgnoresTheTail(t *testing.T) {
	var spans []span
	id := int32(0)
	add := func(dur int64) {
		id++
		root := id
		spans = append(spans, span{ID: root, Req: root, Layer: "gen", Name: "request", Start: 0, End: dur})
		id++
		spans = append(spans, span{ID: id, Parent: root, Req: root, Layer: "exec", Name: "Session.Run", Start: 0, End: dur - 10})
	}
	for _, d := range []int64{100, 100, 100, 100, 100, 100, 100, 100000} {
		add(d)
	}
	lines, total, n := budget(spans, "request")
	if n != 4 {
		t.Fatalf("budget over %d requests, want the middle 4 of 8", n)
	}
	if math.Abs(total*1e6-100) > 1e-9 {
		t.Errorf("total %v ns, want 100", total*1e6)
	}
	if lines[0].Layer != "exec" || math.Abs(lines[0].Share-0.9) > 1e-9 {
		t.Errorf("first line %+v, want exec at 90%%", lines[0])
	}
	if _, _, n := budget(spans, "par_run"); n != 0 {
		t.Errorf("budget of a root that never occurs covers %d requests", n)
	}
}

func TestTracerLinksSpans(t *testing.T) {
	tr := newTracer()
	root := tr.reserve(0, 0, "gen", "request", 5)
	call := tr.add(root, root, "wire", "roundtrip", 10, 20, false)
	tr.finish(root, 5, 30)
	tr.putHandler(call, 12, 18)
	if s, e, ok := tr.takeHandler(call); !ok || s != 12 || e != 18 {
		t.Errorf("handler interval %d..%d %v, want 12..18", s, e, ok)
	}
	if _, _, ok := tr.takeHandler(call); ok {
		t.Error("handler interval handed out twice")
	}
	got := tr.snapshot()
	if len(got) != 2 || got[0].Req != root || got[1].Req != root || got[1].Parent != root {
		t.Errorf("spans %+v are not one request's", got)
	}
	if got[0].Start != 5 || got[0].End != 30 {
		t.Errorf("root %d..%d, want 5..30", got[0].Start, got[0].End)
	}

	var off *tracer
	if id := off.add(0, 0, "gen", "request", 0, 1, false); id != 0 || off.snapshot() != nil {
		t.Error("a nil tracer recorded something")
	}
	off.finish(1, 0, 1)
}

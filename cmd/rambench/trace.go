package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by rambench around the
// call (or rebuilt from a duration the layer reports, see synth). Spans of
// one request share Req; Parent is the span that caused this one, 0 for a
// request's root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Synth marks a span whose length is a duration the layer reported
	// (InferMeta, the executor timeline's merged op cover) and whose position
	// inside its parent rambench chose; lengths are measured, positions not.
	Synth bool `json:"synth,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run takes the same code path minus the appends.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// handler holds the server-side handler interval of an in-flight wire
	// request, keyed by the client's call span, until the client picks it up.
	handler map[int32][2]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), handler: map[int32][2]int64{}}
}

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// add records a span and returns its id. Req 0 means "same as parent's" for
// a root: a root span's Req is its own id.
func (t *tracer) add(parent, req int32, layer, name string, start, end int64, synth bool) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	if req == 0 {
		req = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: start, End: end, Synth: synth})
	return id
}

// reserve allocates a span whose end is not known yet; finish closes it.
func (t *tracer) reserve(parent, req int32, layer, name string, start int64) int32 {
	return t.add(parent, req, layer, name, start, start, false)
}

func (t *tracer) finish(id int32, start, end int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = start, end
	t.mu.Unlock()
}

func (t *tracer) putHandler(call int32, start, end int64) {
	t.mu.Lock()
	t.handler[call] = [2]int64{start, end}
	t.mu.Unlock()
}

func (t *tracer) takeHandler(call int32) (start, end int64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	iv, ok := t.handler[call]
	delete(t.handler, call)
	return iv[0], iv[1], ok
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// covered returns how much of [lo,hi] the given intervals cover, counting
// an instant several of them share once — the executor runs lanes side by
// side, so sibling op spans overlap.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var sum int64
	edge := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < edge {
			s = edge
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += e - s
			edge = e
		}
	}
	return sum
}

// selfTime is a span's length minus the part of that interval its child
// spans cover.
func selfTime(s span, kids []span) int64 {
	ivs := make([][2]int64, len(kids))
	for i, k := range kids {
		ivs[i] = [2]int64{k.Start, k.End}
	}
	return s.dur() - covered(s.Start, s.End, ivs)
}

// budgetLine is one layer's share of a request.
type budgetLine struct {
	Layer string
	Ms    float64 // mean self time per request
	Share float64
}

// budget is the per-layer split of the requests whose root span is named
// root, averaged over the middle half of those requests by latency. A span
// with children gives its layer its self time. Childless spans are taken
// together per parent and layer and give their merged cover, so the ops of
// lanes running side by side are counted once; that keeps the layers adding
// up to the request as long as overlapping siblings share a layer — true
// here, where only the executor's op spans overlap.
func budget(spans []span, root string) (lines []budgetLine, totalMs float64, requests int) {
	kids := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	perReq := map[int32]map[string]int64{}
	add := func(req int32, layer string, ns int64) {
		if perReq[req] == nil {
			perReq[req] = map[string]int64{}
		}
		perReq[req][layer] += ns
	}
	for _, s := range spans {
		if s.Parent == 0 || len(kids[s.ID]) > 0 {
			add(s.Req, s.Layer, selfTime(s, kids[s.ID]))
		}
		leaves := map[string][][2]int64{}
		for _, k := range kids[s.ID] {
			if len(kids[k.ID]) == 0 {
				leaves[k.Layer] = append(leaves[k.Layer], [2]int64{k.Start, k.End})
			}
		}
		for layer, ivs := range leaves {
			add(s.Req, layer, covered(s.Start, s.End, ivs))
		}
	}

	var reqs []int32
	var lat []float64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			reqs = append(reqs, s.Req)
			lat = append(lat, float64(s.dur()))
		}
	}
	if len(reqs) == 0 {
		return nil, 0, 0
	}
	mid := middleHalf(lat)
	sum := map[string]float64{}
	for _, i := range mid {
		for layer, ns := range perReq[reqs[i]] {
			sum[layer] += float64(ns)
		}
	}
	for layer, ns := range sum {
		ms := ns / 1e6 / float64(len(mid))
		lines = append(lines, budgetLine{Layer: layer, Ms: ms})
		totalMs += ms
	}
	for i := range lines {
		lines[i].Share = lines[i].Ms / totalMs
	}
	sort.Slice(lines, func(a, b int) bool { return lines[a].Ms > lines[b].Ms })
	return lines, totalMs, len(mid)
}

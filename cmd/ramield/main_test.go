package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	ramiel "repro"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/tensor"
)

func TestReplicaBudget(t *testing.T) {
	if got := replicaBudget(1<<30, 4); got != 1<<28 {
		t.Errorf("1 GiB over 4 replicas = %d, want %d each", got, 1<<28)
	}
	if got := replicaBudget(1<<30, 0); got != 1<<30 {
		t.Errorf("a pure front keeps the budget whole (it is unused): got %d", got)
	}
	if got := replicaBudget(-1, 2); got != 0 {
		t.Errorf("negative budget = %d, want 0 (governance off)", got)
	}
	if got, want := replicaBudget(0, 2), serve.DetectMemoryBudget(0)/2; got != want {
		t.Errorf("detected budget over 2 replicas = %d, want %d", got, want)
	}
}

// tinyModelFile saves x -> Relu -> out as an ONNX-subset file, the -load form.
func tinyModelFile(t *testing.T) string {
	t.Helper()
	g := graph.New("tiny")
	g.Inputs = []graph.ValueInfo{{Name: "x", Shape: tensor.Shape{4}}}
	g.AddNode("r", "Relu", []string{"x"}, []string{"out"}, nil)
	g.Outputs = []graph.ValueInfo{{Name: "out"}}
	path := filepath.Join(t.TempDir(), "tiny.onnx.json")
	if err := ramiel.SaveModel(g, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// start assembles a daemon the way main does (minus the listener) and tears
// it down with the test.
func start(t *testing.T, st settings) *daemon {
	t.Helper()
	d, err := newDaemon(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, srv := range d.servers {
		srv.MarkReady()
	}
	for _, r := range d.remotes {
		r.StartProbing(probeInterval)
	}
	t.Cleanup(func() {
		shutdown, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.close(shutdown)
	})
	return d
}

// TestDaemonReplicaSets: one local replica serves its own API; anything more
// — here a local replica plus a ramield behind a URL, and a pure front over
// that URL — is a fleet front whose POST /v1/infer reaches the remote.
func TestDaemonReplicaSets(t *testing.T) {
	base := settings{
		serve: serve.Config{Workers: 1, MaxBatch: 1},
		zoo:   []string{"squeezenet"},
		img:   16,
		loads: "tiny=" + tinyModelFile(t),
	}
	const body = `{"model":"tiny","inputs":{"x":{"shape":[4],"data":[-1,0,1,2]}}}`
	post := func(h http.Handler) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body)))
		return rec
	}

	single := base
	single.replicas = 1
	backend := start(t, single)
	if backend.front != nil {
		t.Fatal("one local replica and no remotes built a fleet front")
	}
	if got := backend.servers[0].Registry().Models(); !reflect.DeepEqual(got, []string{"squeezenet", "tiny"}) {
		t.Errorf("registered models = %v, want the zoo model and the loaded one", got)
	}
	if rec := post(backend.handler); rec.Code != http.StatusOK || rec.Header().Get("X-Fleet-Replica") != "" {
		t.Fatalf("single server: status %d, X-Fleet-Replica %q; want 200 and no placement header",
			rec.Code, rec.Header().Get("X-Fleet-Replica"))
	}
	ts := httptest.NewServer(backend.handler)
	defer ts.Close()
	remoteName := "remote0@" + ts.URL

	pure := settings{replicas: 0, remotes: []string{ts.URL}}
	front := start(t, pure)
	if front.front == nil || len(front.servers) != 0 {
		t.Fatalf("-replicas 0 -remotes URL: front %v, %d local servers; want a front over the remote alone", front.front, len(front.servers))
	}
	rec := post(front.handler)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Fleet-Replica") != remoteName {
		t.Fatalf("pure front: status %d (%s), X-Fleet-Replica %q; want 200 from %s",
			rec.Code, rec.Body, rec.Header().Get("X-Fleet-Replica"), remoteName)
	}
	var ir serve.InferResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil || !reflect.DeepEqual(ir.Outputs["out"].Data, []float32{0, 0, 1, 2}) {
		t.Errorf("outputs through the remote = %+v (%v), want Relu of the input", ir.Outputs, err)
	}

	mixed := base
	mixed.replicas = 1
	mixed.remotes = []string{ts.URL}
	mix := start(t, mixed)
	if mix.front == nil {
		t.Fatal("a local replica plus a remote built no fleet front")
	}
	var names []string
	for _, r := range mix.front.Snapshot().Replicas {
		if !r.Healthy || !r.Ready {
			t.Errorf("replica %s healthy=%v ready=%v after the first probe", r.Name, r.Healthy, r.Ready)
		}
		names = append(names, r.Name)
	}
	if want := []string{"r0", remoteName}; !reflect.DeepEqual(names, want) {
		t.Errorf("replica set = %v, want %v", names, want)
	}
	if rec := post(mix.handler); rec.Code != http.StatusOK || rec.Header().Get("X-Fleet-Replica") == "" {
		t.Errorf("mixed fleet: status %d, X-Fleet-Replica %q; want 200 and a placement", rec.Code, rec.Header().Get("X-Fleet-Replica"))
	}

	for name, st := range map[string]settings{
		"no replica at all":  {replicas: 0},
		"negative replicas":  {replicas: -1, remotes: []string{ts.URL}},
		"-load without path": {replicas: 1, zoo: []string{"squeezenet"}, img: 16, loads: "tiny"},
	} {
		if _, err := newDaemon(st); err == nil {
			t.Errorf("%s: newDaemon accepted it", name)
		}
	}
}

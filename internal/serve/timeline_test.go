package serve

import (
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"slices"
	"testing"
)

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: invalid JSON %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPTimelineDisabled(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 2, MaxBatch: 1}, "squeezenet")
	if code := getJSON(t, ts.URL+"/v1/timeline?model=squeezenet", nil); code != http.StatusNotImplemented {
		t.Errorf("timeline with recording off: %d, want 501", code)
	}
}

func TestHTTPTimelineEndpoint(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 2, MaxBatch: 1, TimelineEvery: 1}, "squeezenet")

	if code := getJSON(t, ts.URL+"/v1/timeline", nil); code != http.StatusBadRequest {
		t.Errorf("missing model: %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/timeline?model=squeezenet&batch=zero", nil); code != http.StatusBadRequest {
		t.Errorf("bad batch: %d, want 400", code)
	}
	// Monitoring must not compile: before any inference the variant does
	// not exist, and asking for its timeline reports 404, not a build.
	if code := getJSON(t, ts.URL+"/v1/timeline?model=squeezenet", nil); code != http.StatusNotFound {
		t.Errorf("uncompiled model: %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/timeline?model=nosuch", nil); code != http.StatusNotFound {
		t.Errorf("unknown model: %d, want 404", code)
	}

	seed := uint64(1)
	resp, _ := postInfer(t, ts.URL, InferRequest{Model: "squeezenet", Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %d", resp.StatusCode)
	}

	var trace struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if code := getJSON(t, ts.URL+"/v1/timeline?model=squeezenet", &trace); code != http.StatusOK {
		t.Fatalf("timeline after infer: %d, want 200", code)
	}
	var ops int
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" && e.Cat == "op" {
			ops++
		}
	}
	if ops == 0 {
		t.Errorf("no op events in exported trace (%d events)", len(trace.TraceEvents))
	}
}

// TestStatsShape pins /v1/stats to one shape: the same top-level fields
// whatever the query asks for.
func TestStatsShape(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 2, MaxBatch: 1}, "squeezenet")
	seed := uint64(1)
	if resp, _ := postInfer(t, ts.URL, InferRequest{Model: "squeezenet", Seed: &seed}); resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %d", resp.StatusCode)
	}
	want := []string{"arena", "max_output_values", "memory", "models", "ops", "panics_total",
		"pool", "ready", "registry", "runtime", "uptime_seconds"}
	for _, query := range []string{"", "?variants=1&calibration=1"} {
		var stats map[string]json.RawMessage
		if code := getJSON(t, ts.URL+"/v1/stats"+query, &stats); code != http.StatusOK {
			t.Fatalf("stats%s: %d", query, code)
		}
		if got := slices.Sorted(maps.Keys(stats)); !slices.Equal(got, want) {
			t.Errorf("stats%s fields = %v, want %v", query, got, want)
		}
	}
}

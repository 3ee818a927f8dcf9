package main

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"testing"

	ramiel "repro"
)

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

// Every workload, untraced and traced, on tiny models with 0.1 s phases:
// the whole of rambench runs, nothing is measured. The workloads run one
// after another because live_heap_mb reads the process's heap.
func TestSmoke(t *testing.T) {
	ramiel.SetIntraOpThreads(1)
	opt := options{seed: 3, seconds: smokeSeconds, size: smokeSize}
	for _, spec := range workloads {
		t.Run(spec.Name, func(t *testing.T) {
			var out bytes.Buffer
			spans := filepath.Join(t.TempDir(), "spans.json")
			results, ok, err := runAll(&out, []workloadSpec{spec}, []bool{false, true}, opt, spans)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("not correct:\n%s", out.String())
			}
			for _, r := range results {
				if r.Attempted < 1 || r.Failed != 0 {
					t.Errorf("traced=%v: attempted %d failed %d (%s)", r.Traced, r.Attempted, r.Failed, r.FirstErr)
				}
				line, err := driverLine(r)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   bool  `json:"correct"`
					Attempted int64 `json:"attempted"`
					Failed    int64 `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &got); err != nil {
					t.Fatalf("driver line: %v", err)
				}
				want := endToEnd
				if r.Traced {
					want = perLayer
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics on the driver line, want %d", r.Traced, len(got.Metrics), len(want))
				}
				for _, s := range want {
					m, ok := got.Metrics[s.Name]
					if !ok || m.Unit != s.Unit {
						t.Errorf("traced=%v: metric %s missing or in %q", r.Traced, s.Name, m.Unit)
					}
					if !r.Traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v: must never be 0", s.Name, m.Value)
					}
				}
				if r.Traced {
					if len(r.Spans) == 0 {
						t.Error("traced run kept no spans")
					}
					root := "request"
					if _, total, n := budget(r.Spans, root); n == 0 || total <= 0 {
						t.Errorf("no %s budget from %d spans", root, len(r.Spans))
					}
				}
			}
		})
	}
}

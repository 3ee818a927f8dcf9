package obs

import (
	"strings"
	"testing"
)

// TestPromFamilyFormatting covers each value kind the writer accepts:
// integers keep %d (1,000,000 never turns into 1e+06), floats print in
// shortest form, bools as 1/0, nil leaves the sample out, a nested series
// prepends the outer label, and a histogram renders its cumulative ladder.
func TestPromFamilyFormatting(t *testing.T) {
	var b strings.Builder
	p := NewProm(&b)
	p.Family("a_total", "counter", "Ints.", Value(int64(1_000_000)))
	p.Family("b", "gauge", "Floats.", Value(0.25))
	p.Family("c", "gauge", "Bools.", ByItem("r", []string{"x", "y"}, func(s string) string { return s },
		func(s string) any { return s == "x" }))
	p.Family("d_total", "counter", "Nested, sorted, with a nil left out.",
		ByKey("model", map[string]map[string]int64{"m2": {"z": 2, "a": 1}, "m1": nil}, func(m map[string]int64) any {
			if m == nil {
				return nil
			}
			return ByKey("cause", m, nil)
		}))
	var none *HistogramSnapshot
	p.Family("e_seconds", "histogram", "Histograms.", ByKey("k", map[string]any{
		"h": HistogramSnapshot{Count: 3, SumNs: 1.5e9, Buckets: []Bucket{{UpperNs: 1e9, Count: 2}, {UpperNs: 2e9, Count: 1}}},
		"n": none,
	}, nil))
	want := `# HELP a_total Ints.
# TYPE a_total counter
a_total 1000000
# HELP b Floats.
# TYPE b gauge
b 0.25
# HELP c Bools.
# TYPE c gauge
c{r="x"} 1
c{r="y"} 0
# HELP d_total Nested, sorted, with a nil left out.
# TYPE d_total counter
d_total{model="m2",cause="a"} 1
d_total{model="m2",cause="z"} 2
# HELP e_seconds Histograms.
# TYPE e_seconds histogram
e_seconds_bucket{k="h",le="1"} 2
e_seconds_bucket{k="h",le="2"} 3
e_seconds_bucket{k="h",le="+Inf"} 3
e_seconds_sum{k="h"} 1.5
e_seconds_count{k="h"} 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

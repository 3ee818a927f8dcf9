package serve

import (
	"math"
	"strconv"
	"testing"
)

// Test hooks for the external exposition tests (exposition_test.go), which
// sit in package serve_test so they can run a fleet front over real
// servers.
var (
	RegisterChaosSleep = registerChaosSleep
	SleepyModel        = sleepyModel
)

// CheckExposition validates a whole Prometheus text exposition the way
// TestMetricsWellFormed validates the server's: name and label grammar,
// HELP/TYPE placement, every sample under a declared family with histogram
// suffixes only under histograms, and per histogram series a cumulative le
// ladder that increases, ends at +Inf and agrees with _count. It returns the
// declared families and the parsed sample count.
func CheckExposition(t *testing.T, text string) (types map[string]string, samples int) {
	t.Helper()
	types, parsed := parseProm(t, text)
	type ladder struct {
		les, counts []float64
		count       float64
		hasCount    bool
	}
	ladders := map[string]*ladder{}
	for _, smp := range parsed {
		fam := familyOf(smp.name)
		typ, ok := types[fam]
		switch {
		case !ok:
			t.Errorf("sample %q has no TYPE declaration", smp.line)
			continue
		case smp.name != fam && typ != "histogram":
			t.Errorf("sample %q uses a histogram suffix but %s is a %s", smp.line, fam, typ)
		case smp.name == fam && typ == "histogram":
			t.Errorf("histogram %s has a bare sample %q", fam, smp.line)
		}
		if typ != "histogram" {
			continue
		}
		key := fam + "|" + labelKey(smp.labels)
		l := ladders[key]
		if l == nil {
			l = &ladder{}
			ladders[key] = l
		}
		switch {
		case smp.name == fam+"_bucket":
			le, ok := smp.labels["le"]
			if !ok {
				t.Errorf("bucket sample without le label: %q", smp.line)
				continue
			}
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("unparsable le %q in %q", le, smp.line)
			}
			l.les = append(l.les, f)
			l.counts = append(l.counts, smp.value)
		case smp.name == fam+"_count":
			l.count, l.hasCount = smp.value, true
		}
	}
	for key, l := range ladders {
		n := len(l.les)
		if n == 0 || !l.hasCount {
			t.Errorf("histogram series %s lacks buckets or _count", key)
			continue
		}
		if !math.IsInf(l.les[n-1], 1) {
			t.Errorf("histogram series %s does not end at +Inf", key)
		}
		for i := 1; i < n; i++ {
			if l.les[i] <= l.les[i-1] || l.counts[i] < l.counts[i-1] {
				t.Errorf("series %s: le %v with cumulative counts %v is not a ladder", key, l.les, l.counts)
				break
			}
		}
		if l.counts[n-1] != l.count {
			t.Errorf("series %s: +Inf bucket %v != _count %v", key, l.counts[n-1], l.count)
		}
	}
	return types, len(parsed)
}

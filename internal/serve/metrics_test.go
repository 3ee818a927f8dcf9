package serve

import (
	"bufio"
	"context"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promSample is one parsed exposition line: name{labels} value.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   string
}

// parseProm parses a Prometheus text exposition strictly enough to catch
// the bugs hand-rolled renderers actually have: samples before their TYPE,
// malformed label quoting, bad metric names, unparsable values.
func parseProm(t *testing.T, text string) (types map[string]string, samples []promSample) {
	t.Helper()
	types = map[string]string{}
	helps := map[string]bool{}
	seenSample := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) {
				t.Fatalf("malformed HELP line: %q", line)
			}
			helps[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown metric type %q in %q", parts[1], line)
			}
			if seenSample[parts[0]] {
				t.Errorf("TYPE for %s appears after its samples", parts[0])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		s := parsePromSample(t, line)
		samples = append(samples, s)
		seenSample[familyOf(s.name)] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for fam := range types {
		if !helps[fam] {
			t.Errorf("family %s has TYPE but no HELP", fam)
		}
	}
	return types, samples
}

func parsePromSample(t *testing.T, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}, line: line}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			t.Fatalf("unclosed label braces: %q", line)
		}
		for _, pair := range splitLabels(t, rest[i+1:end], line) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || !labelNameRe.MatchString(k) {
				t.Fatalf("malformed label %q in %q", pair, line)
			}
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("label value not quoted in %q", line)
			}
			s.labels[k] = v[1 : len(v)-1]
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line: %q", line)
		}
		s.name, rest = fields[0], fields[1]
	}
	if !metricNameRe.MatchString(s.name) {
		t.Fatalf("bad metric name in %q", line)
	}
	val := strings.TrimSpace(rest)
	switch val {
	case "+Inf":
		s.value = math.Inf(1)
	default:
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparsable value %q in %q: %v", val, line, err)
		}
		s.value = f
	}
	return s
}

// splitLabels splits `a="x",b="y"` on commas outside quotes.
func splitLabels(t *testing.T, s, line string) []string {
	t.Helper()
	var out []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, c := range s {
		switch {
		case escaped:
			cur.WriteRune(c)
			escaped = false
		case c == '\\' && inQuote:
			cur.WriteRune(c)
			escaped = true
		case c == '"':
			cur.WriteRune(c)
			inQuote = !inQuote
		case c == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(c)
		}
	}
	if inQuote {
		t.Fatalf("unterminated quote in labels of %q", line)
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// familyOf strips the histogram sample suffixes.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// labelKey canonicalizes a label set minus `le` for grouping histogram
// series.
func labelKey(labels map[string]string) string {
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		if k == "le" {
			continue
		}
		parts = append(parts, k+"="+v)
	}
	// Order-stable enough for tests: sort via insertion.
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return strings.Join(parts, ",")
}

// TestMetricsWellFormed fetches /metrics and validates the whole
// exposition: name and label grammar, HELP/TYPE placement, and for every
// histogram series a monotone cumulative le-bucket ladder that ends at
// +Inf and agrees with _count.
func TestMetricsWellFormed(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 2, MaxBatch: 2, FlushTimeout: 200 * time.Microsecond, AdaptiveBatch: true}, "squeezenet")
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	feeds, err := s.RandomFeeds("squeezenet", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := s.Infer(context.Background(), "squeezenet", feeds, false); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	types, samples := parseProm(t, string(raw))

	// Every sample's family must be declared, with histogram suffixes only
	// under histogram-typed families.
	for _, smp := range samples {
		fam := familyOf(smp.name)
		typ, ok := types[fam]
		if !ok {
			t.Errorf("sample %q has no TYPE declaration", smp.line)
			continue
		}
		if smp.name != fam && typ != "histogram" {
			t.Errorf("sample %q uses a histogram suffix but %s is a %s", smp.line, fam, typ)
		}
		if typ == "histogram" {
			if smp.name == fam {
				t.Errorf("histogram %s has a bare sample %q", fam, smp.line)
			}
			if strings.HasSuffix(smp.name, "_bucket") {
				if _, ok := smp.labels["le"]; !ok {
					t.Errorf("bucket sample without le label: %q", smp.line)
				}
			}
		}
	}

	// The new fleet-facing gauges must be present per model.
	wantFamilies := []string{"ramield_batcher_queue_depth", "ramield_model_in_flight", "ramield_batch_flush_window_ns"}
	for _, fam := range wantFamilies {
		found := false
		for _, smp := range samples {
			if smp.name == fam && smp.labels["model"] == "squeezenet" {
				found = true
			}
		}
		if !found {
			t.Errorf("missing %s{model=\"squeezenet\"}", fam)
		}
	}

	// Histogram ladder checks per (family, labelset-minus-le).
	type ladder struct {
		les    []float64
		counts []float64
		sum    float64
		count  float64
		hasInf bool
	}
	ladders := map[string]*ladder{}
	get := func(fam, key string) *ladder {
		k := fam + "|" + key
		if ladders[k] == nil {
			ladders[k] = &ladder{}
		}
		return ladders[k]
	}
	for _, smp := range samples {
		fam := familyOf(smp.name)
		if types[fam] != "histogram" {
			continue
		}
		l := get(fam, labelKey(smp.labels))
		switch {
		case strings.HasSuffix(smp.name, "_bucket"):
			le := smp.labels["le"]
			if le == "+Inf" {
				l.hasInf = true
				l.les = append(l.les, math.Inf(1))
			} else {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("unparsable le %q in %q", le, smp.line)
				}
				l.les = append(l.les, f)
			}
			l.counts = append(l.counts, smp.value)
		case strings.HasSuffix(smp.name, "_sum"):
			l.sum = smp.value
		case strings.HasSuffix(smp.name, "_count"):
			l.count = smp.value
		}
	}
	checked := 0
	for key, l := range ladders {
		if len(l.les) == 0 {
			t.Errorf("histogram series %s has _sum/_count but no buckets", key)
			continue
		}
		if !l.hasInf {
			t.Errorf("histogram series %s has no +Inf bucket", key)
		}
		for i := 1; i < len(l.les); i++ {
			if l.les[i] <= l.les[i-1] {
				t.Errorf("series %s: le values not increasing (%v)", key, l.les)
				break
			}
			if l.counts[i] < l.counts[i-1] {
				t.Errorf("series %s: cumulative counts decreased (%v)", key, l.counts)
				break
			}
		}
		if last := l.counts[len(l.counts)-1]; last != l.count {
			t.Errorf("series %s: +Inf bucket %v != _count %v", key, last, l.count)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no histogram series found in /metrics — the parser or renderer is broken")
	}
}

// TestGracefulDrain verifies the SIGTERM sequence the daemon runs:
// BeginDrain flips /readyz to 503 (so balancers rotate away) while
// in-flight and late-arriving requests still complete.
func TestGracefulDrain(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 2, MaxBatch: 1}, "squeezenet")
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/readyz before drain = %d, want 200", resp.StatusCode)
		}
	}

	s.BeginDrain()

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("/readyz during drain = %d, want 503", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/healthz during drain = %d, want 200 (draining is not dead)", resp.StatusCode)
		}
	}

	// Draining rejects nothing: in-flight work runs to completion.
	feeds, err := s.RandomFeeds("squeezenet", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Infer(context.Background(), "squeezenet", feeds, true); err != nil {
		t.Errorf("inference during drain failed: %v", err)
	}
}

func TestAdaptiveWindow(t *testing.T) {
	var exec obs.Histogram
	const (
		minW = 50 * time.Microsecond
		maxW = 2 * time.Millisecond
	)

	t.Run("cold model waits the static window", func(t *testing.T) {
		a := newBatchAdapter(&exec, minW, maxW, 4)
		if got := a.window(1); got != maxW {
			t.Errorf("window = %v with no data, want static cap %v", got, maxW)
		}
	})

	t.Run("sparse arrivals flush at the floor", func(t *testing.T) {
		a := newBatchAdapter(&exec, minW, maxW, 4)
		base := time.Unix(1000, 0)
		a.note(base)
		a.note(base.Add(100 * time.Millisecond)) // gap >> any budget
		if got := a.window(1); got != minW {
			t.Errorf("window = %v for sparse arrivals, want floor %v", got, minW)
		}
	})

	t.Run("dense arrivals wait for the window to fill", func(t *testing.T) {
		for i := 0; i < 100; i++ {
			exec.Record(time.Millisecond) // p50 ≈ 1ms → budget ≈ 500µs
		}
		a := newBatchAdapter(&exec, minW, maxW, 4)
		base := time.Unix(1000, 0)
		for i := 0; i < 20; i++ {
			a.note(base.Add(time.Duration(i) * 100 * time.Microsecond))
		}
		got := a.window(1)
		// gap ≈ 100µs, 3 slots remain → fill ≈ 300µs, within budget.
		if got < minW || got > 600*time.Microsecond {
			t.Errorf("window = %v for 100µs arrivals, want ≈300µs (within [%v, 600µs])", got, minW)
		}
		if got == maxW {
			t.Errorf("window = static cap %v under dense load — adapter inert", maxW)
		}
	})

	t.Run("full window flushes at the floor", func(t *testing.T) {
		a := newBatchAdapter(&exec, minW, maxW, 4)
		base := time.Unix(1000, 0)
		a.note(base)
		a.note(base.Add(100 * time.Microsecond))
		if got := a.window(4); got != minW {
			t.Errorf("window = %v with the batch full, want floor %v", got, minW)
		}
	})

	t.Run("nil adapter is the static path", func(t *testing.T) {
		var a *batchAdapter
		a.note(time.Now()) // must not panic
	})
}

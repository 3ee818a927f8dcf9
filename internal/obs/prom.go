package obs

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
)

// This file is the one dependency-free Prometheus text-exposition writer
// behind every /metrics renderer (the serving layer's and the fleet
// front's). It only formats: all snapshotting is the caller's.

// Series is one family's samples in exposition order. Each yields the
// sample's label list, rendered without braces ("" for none), and its
// value:
//   - an integer, printed with %d (1,000,000 stays 1000000);
//   - a float64, printed by promFloat;
//   - a bool, printed as 1 or 0;
//   - a HistogramSnapshot or a non-nil *HistogramSnapshot, printed as a
//     histogram series;
//   - a Series, whose samples follow with this sample's labels first
//     (the two-label series);
//   - nil, which leaves the sample out.
type Series func(yield func(labels string, v any) bool)

// Value is the series of one unlabeled sample.
func Value(v any) Series {
	return func(yield func(string, any) bool) { yield("", v) }
}

// ByItem is the series of one sample per item, in order, labelled
// label=key(item) and valued value(item).
func ByItem[T any](label string, items []T, key func(T) string, value func(T) any) Series {
	return func(yield func(string, any) bool) {
		for _, it := range items {
			if !yield(label+"="+promLabel(key(it)), value(it)) {
				return
			}
		}
	}
}

// ByKey is the series of one sample per entry of m, in key order,
// labelled label=key and valued value(entry), or the entry itself when
// value is nil.
func ByKey[V any](label string, m map[string]V, value func(V) any) Series {
	if value == nil {
		value = func(v V) any { return v }
	}
	return ByItem(label, slices.Sorted(maps.Keys(m)), func(k string) string { return k },
		func(k string) any { return value(m[k]) })
}

// Prom writes one exposition in the Prometheus text format, version 0.0.4.
type Prom struct{ w io.Writer }

// NewProm writes to w.
func NewProm(w io.Writer) *Prom { return &Prom{w: w} }

// Family writes one metric family: its # HELP and # TYPE lines, then
// every sample of s.
func (p *Prom) Family(name, typ, help string, s Series) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for labels, v := range s {
		p.sample(name, labels, v)
	}
}

func (p *Prom) sample(name, labels string, v any) {
	switch v := v.(type) {
	case nil:
	case Series:
		for inner, iv := range v {
			p.sample(name, joinLabels(labels, inner), iv)
		}
	case HistogramSnapshot:
		p.histogram(name, labels, v)
	case *HistogramSnapshot:
		if v != nil {
			p.histogram(name, labels, *v)
		}
	case bool:
		if v {
			p.line(name, labels, 1)
		} else {
			p.line(name, labels, 0)
		}
	case float64:
		p.line(name, labels, promFloat(v))
	default:
		p.line(name, labels, v)
	}
}

func (p *Prom) line(name, labels string, v any) {
	if labels == "" {
		fmt.Fprintf(p.w, "%s %v\n", name, v)
		return
	}
	fmt.Fprintf(p.w, "%s{%s} %v\n", name, labels, v)
}

// histogram renders one histogram series in the Prometheus convention:
// cumulative bucket counts keyed by inclusive upper bound `le` in seconds,
// closed by +Inf, plus _sum and _count. The snapshot's buckets are
// non-cumulative, non-empty and sorted ascending, so one pass accumulates.
func (p *Prom) histogram(name, labels string, snap HistogramSnapshot) {
	cum := int64(0)
	for _, b := range snap.Buckets {
		cum += b.Count
		p.line(name+"_bucket", joinLabels(labels, `le="`+promFloat(float64(b.UpperNs)/1e9)+`"`), cum)
	}
	p.line(name+"_bucket", joinLabels(labels, `le="+Inf"`), cum)
	p.line(name+"_sum", labels, promFloat(float64(snap.SumNs)/1e9))
	p.line(name+"_count", labels, snap.Count)
}

func joinLabels(a, b string) string {
	if a == "" || b == "" {
		return a + b
	}
	return a + "," + b
}

// MetricsHandler is the GET /metrics handler of both tiers: it renders
// write's families in the text exposition format.
func MetricsHandler(write func(io.Writer)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		bw := bufio.NewWriter(w)
		defer bw.Flush()
		write(bw)
	}
}

// promLabel escapes a label value per the exposition format (backslash,
// double quote, newline) and wraps it in quotes.
func promLabel(v string) string {
	v = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
	return `"` + v + `"`
}

// promFloat renders a float the way Prometheus clients expect: shortest
// round-trip representation, no exponent for typical magnitudes.
func promFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one timing's observations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of s by linear interpolation
// between closest ranks; 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.sorted()
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// p99 reports the 99th percentile only when at least p99MinN samples back
// it, so at least ten lie beyond it; below that the tail is one or two
// outliers and ok is false.
func (s samples) p99() (v float64, ok bool) {
	if len(s) < p99MinN {
		return 0, false
	}
	return s.quantile(0.99), true
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// middleHalf returns the indices of the samples between the first and the
// third quartile — the requests a latency budget is averaged over, so that
// the budget's total tracks the median and not the tail.
func middleHalf(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	lo, hi := len(idx)/4, len(idx)-len(idx)/4
	return idx[lo:hi]
}

// worseBy is the share by which got is worse than base in the metric's
// direction (negative when it is better).
func worseBy(base, got float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - got) / base
	}
	return (got - base) / base
}

// metric is one reported value with the number of samples behind it.
type metric struct {
	Value float64
	N     int
}

// metricSet holds a run's metrics by name; spec.go has their units and the
// order they print in.
type metricSet map[string]metric

func (m *metricSet) put(name string, v float64, n int) {
	if *m == nil {
		*m = metricSet{}
	}
	(*m)[name] = metric{Value: v, N: n}
}

func (m metricSet) get(name string) (metric, bool) {
	v, ok := m[name]
	return v, ok
}

package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantiles(t *testing.T) {
	var s samples
	for _, ms := range []int{5, 1, 4, 2, 3} {
		s.add(time.Duration(ms) * time.Millisecond)
	}
	if got := s.median(); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := s.quantile(0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	if got := s.quantile(1); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	if got := (samples{1, 2}).median(); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if got := (samples{}).median(); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	if s[0] != 5 {
		t.Error("quantile sorted the caller's slice")
	}
}

// A p99 needs ten samples beyond it: none is reported under 1000 samples.
func TestP99NeedsAThousandSamples(t *testing.T) {
	var s samples
	for i := 0; i < p99MinN-1; i++ {
		s = append(s, float64(i))
	}
	if _, ok := s.p99(); ok {
		t.Fatalf("p99 reported from %d samples", len(s))
	}
	s = append(s, float64(len(s)))
	v, ok := s.p99()
	if !ok {
		t.Fatalf("no p99 from %d samples", len(s))
	}
	if beyond := float64(len(s)-1) - v; beyond < 9 || beyond > 11 {
		t.Errorf("p99 = %v leaves %v samples beyond it, want ten", v, beyond)
	}
}

func TestMiddleHalf(t *testing.T) {
	v := []float64{80, 10, 30, 20, 70, 40, 60, 50}
	got := middleHalf(v)
	if len(got) != 4 {
		t.Fatalf("middle half of 8 has %d, want 4", len(got))
	}
	for _, i := range got {
		if v[i] < 30 || v[i] > 60 {
			t.Errorf("middle half holds %v", v[i])
		}
	}
}

func TestWorseBy(t *testing.T) {
	for _, c := range []struct {
		base, got float64
		better    string
		want      float64
	}{
		{100, 110, "lower", 0.10},
		{100, 90, "lower", -0.10},
		{100, 90, "higher", 0.10},
		{100, 110, "higher", -0.10},
		{0, 5, "lower", 0},
	} {
		if got := worseBy(c.base, c.got, c.better); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worseBy(%v, %v, %s) = %v, want %v", c.base, c.got, c.better, got, c.want)
		}
	}
}

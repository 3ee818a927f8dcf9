package ops

import (
	"math"
	"testing"
)

// ulps is the distance between a and b in float32 steps, counting across
// zero (+0 and -0 are one value); NaN against anything but NaN is infinite.
func ulps(a, b float32) int64 {
	if a != a || b != b {
		if a != a && b != b {
			return 0
		}
		return math.MaxInt64
	}
	d := ordered(a) - ordered(b)
	return max(d, -d)
}

// ordered maps float32 values to integers in the same order, one apart
// for adjacent values, with -0 and +0 both 0.
func ordered(v float32) int64 {
	bits := int64(math.Float32bits(v))
	if bits>>31 == 0 {
		return bits
	}
	return -(bits & 0x7fffffff)
}

// sweepFloats calls f on every step-th float32 from lo up to hi, both
// included, walking the ordered values so each binade gets its share.
func sweepFloats(lo, hi float32, step int64, f func(x float32)) {
	for o := ordered(lo); o <= ordered(hi); o += step {
		bits := uint32(o)
		if o < 0 {
			bits = uint32(-o) | 1<<31
		}
		f(math.Float32frombits(bits))
	}
	f(hi)
}

// TestTranscendentalAccuracy sweeps erf32 over [-6, 6] and exp32 over its
// normal range, half a million float32 inputs each spread over every binade,
// against math.Erf and math.Exp rounded to float32: erf32 within 8 ulp,
// exp32 within 2. It pins the special values too: signed zeros, ±Inf,
// NaN, and exp32's underflow and overflow edges.
func TestTranscendentalAccuracy(t *testing.T) {
	type check struct {
		name  string
		f     func(float32) float32
		ref   func(float64) float64
		lo    float32
		hi    float32
		bound int64
	}
	for _, c := range []check{
		{"erf32", erf32, math.Erf, -6, 6, 8},
		{"exp32", exp32, math.Exp, expUnderflow, math.Nextafter32(expOverflow, 0), 2},
	} {
		var worst int64
		var at float32
		sweepFloats(c.lo, c.hi, 4093, func(x float32) {
			if d := ulps(c.f(x), float32(c.ref(float64(x)))); d > worst {
				worst, at = d, x
			}
		})
		if worst > c.bound {
			t.Errorf("%s: %d ulp at %v (%v, want %v), want at most %d", c.name, worst, at, c.f(at), float32(c.ref(float64(at))), c.bound)
		}
		t.Logf("%s: worst %d ulp at %v", c.name, worst, at)
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	minNormal := math.Float32frombits(0x00800000)
	for _, c := range []struct {
		name    string
		f       func(float32) float32
		x, want float32
	}{
		{"erf32", erf32, 0, 0},
		{"erf32", erf32, negZero, negZero},
		{"erf32", erf32, inf, 1},
		{"erf32", erf32, -inf, -1},
		{"erf32", erf32, 10, 1},
		{"erf32", erf32, -10, -1},
		{"erf32", erf32, nan, nan},
		{"exp32", exp32, 0, 1},
		{"exp32", exp32, negZero, 1},
		{"exp32", exp32, inf, inf},
		{"exp32", exp32, -inf, 0},
		{"exp32", exp32, nan, nan},
		{"exp32", exp32, expOverflow, inf},
		{"exp32", exp32, 1000, inf},
		{"exp32", exp32, math.Nextafter32(expUnderflow, -inf), 0},
		{"exp32", exp32, -1000, 0},
	} {
		got := c.f(c.x)
		if math.Float32bits(got) != math.Float32bits(c.want) && !(got != got && c.want != c.want) {
			t.Errorf("%s(%v) = %v, want %v", c.name, c.x, got, c.want)
		}
	}
	// Every input below ln(FLT_MIN) gives exactly 0 and every input in the
	// normal range a normal result; the largest stays finite.
	sweepFloats(-inf, math.Nextafter32(expUnderflow, -inf), 4093, func(x float32) {
		if got := exp32(x); math.Float32bits(got) != 0 {
			t.Fatalf("exp32(%v) = %v, want 0", x, got)
		}
	})
	if got := exp32(expUnderflow); got < minNormal {
		t.Errorf("exp32(%v) = %v, want a normal float32", expUnderflow, got)
	}
	if got := exp32(math.Nextafter32(expOverflow, 0)); got > math.MaxFloat32 {
		t.Errorf("exp32 just below the overflow edge = %v, want finite", got)
	}
}

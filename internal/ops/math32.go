package ops

import "math"

// The float32 transcendentals behind Erf, Exp, Sigmoid and Softmax: a few
// float32 multiply-adds each, with no table and no float64 round trip.

// Edges of exp32's normal range: below expUnderflow e^x is under FLT_MIN
// and at or above expOverflow it rounds past FLT_MAX. Both are float32
// values, the nearest to ln(FLT_MIN) from above and to ln(FLT_MAX) from
// above.
const (
	expUnderflow float32 = -87.33654022216796875
	expOverflow  float32 = 88.72283935546875
)

// exp32 is e^x, Cephes expf: x = n·ln2 + r with n the integer nearest
// x·log2(e) (rounded by adding and subtracting 1.5·2^23), r taken off in
// two parts of ln2 so the reduction loses no bits, e^r from a degree-5
// polynomial, and n added to the result's exponent bits. Those bits
// cannot overflow: below expOverflow, n reaches 128 only with r < 0, so
// e^r < 1. Within 1 ulp of e^x (measured) wherever that is a normal
// float32; 0 below expUnderflow (so exp32(-Inf) = 0), +Inf from
// expOverflow up, and NaN for NaN.
func exp32(x float32) float32 {
	if !(x < expOverflow) {
		return x + float32(math.Inf(1)) // +Inf, or NaN for NaN
	}
	if x < expUnderflow {
		return 0
	}
	const round = 1.5 * (1 << 23)
	t := x*math.Log2E + round
	n := t - round
	r := x - n*0.693359375 - n*-2.12194440e-4
	p := ((((1.9875691500e-4*r+1.3981999507e-3)*r+8.3334519073e-3)*r+4.1665795894e-2)*r+1.6666665459e-1)*r + 5.0000001201e-1
	y := p*(r*r) + r + 1
	return math.Float32frombits(math.Float32bits(y) + (math.Float32bits(t)-math.Float32bits(round))<<23)
}

// erf32 is the Gauss error function, the rational approximation of
// Eigen's generic_fast_erf_float and XLA's ErfImpl32: x clamped to ±4
// (erf is ±1 in float32 beyond), then an odd degree-13 numerator over an
// even degree-8 denominator in x². The numerator's factor x is applied
// last, so a tiny x never goes through a subnormal product. Within 6 ulp
// of erf(x) (measured); NaN stays NaN.
func erf32(x float32) float32 {
	// Branches, not the builtin min and max: those pay for NaN and signed
	// zero checks a comparison gets for free (NaN fails both and stays).
	if x > 4 {
		x = 4
	} else if x < -4 {
		x = -4
	}
	x2 := x * x
	p := (((((-2.72614225801306e-10*x2+2.77068142495902e-08)*x2-2.10102402082508e-06)*x2-
		5.69250639462346e-05)*x2-7.34990630326855e-04)*x2-2.95459980854025e-03)*x2 - 1.60960333262415e-02
	q := (((-1.45660718464996e-05*x2-2.13374055278905e-04)*x2-1.68282697438203e-03)*x2-
		7.37332916720468e-03)*x2 - 1.42647390514189e-02
	return x * (p / q)
}

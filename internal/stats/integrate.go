package stats

import "math"

// Integrate numerically integrates f over [a, b] using adaptive Simpson
// quadrature with the given absolute tolerance. It is the workhorse behind
// the DUST phi function, whose posterior integrals have no closed form for
// uniform and exponential error distributions.
func Integrate(f func(float64) float64, a, b, tol float64) float64 {
	//lint:allow floatcmp an exactly empty interval integrates to exactly zero; near-empty ones go through Simpson
	if a == b {
		return 0
	}
	if a > b {
		return -Integrate(f, b, a, tol)
	}
	if tol <= 0 {
		tol = 1e-10
	}
	// Pre-split into a fixed number of panels so that narrow features (e.g.
	// a sharp posterior peak inside a wide support) cannot hide between the
	// three initial sample points of a single adaptive call. Features
	// narrower than (b-a)/panels may still be missed entirely; callers that
	// integrate peaked densities must clip [a, b] to the region where the
	// integrand is non-negligible (the DUST phi integral does exactly that).
	const panels = 64
	h := (b - a) / panels
	var total float64
	for i := 0; i < panels; i++ {
		lo := a + float64(i)*h
		hi := lo + h
		fa, fb := f(lo), f(hi)
		m := (lo + hi) / 2
		fm := f(m)
		whole := simpson(lo, hi, fa, fm, fb)
		total += adaptiveSimpson(f, lo, hi, fa, fm, fb, whole, tol/panels, 50)
	}
	return total
}

func simpson(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

func adaptiveSimpson(f func(float64) float64, a, b, fa, fm, fb, whole, tol float64, depth int) float64 {
	m := (a + b) / 2
	lm := (a + m) / 2
	rm := (m + b) / 2
	flm := f(lm)
	frm := f(rm)
	left := simpson(a, m, fa, flm, fm)
	right := simpson(m, b, fm, frm, fb)
	delta := left + right - whole
	if depth <= 0 || math.Abs(delta) <= 15*tol {
		return left + right + delta/15
	}
	return adaptiveSimpson(f, a, m, fa, flm, fm, left, tol/2, depth-1) +
		adaptiveSimpson(f, m, b, fm, frm, fb, right, tol/2, depth-1)
}

// Package stats provides the statistical substrate for the uncertain
// time-series study: probability distributions with full density/CDF/quantile
// support, special functions, descriptive statistics, confidence intervals,
// histograms, numerical integration, and the chi-square goodness-of-fit test
// used in Section 4.1.1 of the paper.
//
// Everything is implemented from scratch on top of the standard library so the
// module stays dependency-free.
package stats

import (
	"errors"
	"math"
)

// ErrDomain is returned by functions that are handed an argument outside
// their mathematical domain (for example a probability outside (0, 1)).
var ErrDomain = errors.New("stats: argument outside function domain")

// ErfInv returns the inverse error function of x, for x in (-1, 1).
//
// The implementation follows the rational approximation of Blair, Edwards and
// Johnson refined with two Newton steps against math.Erf, which brings the
// result to within a few ULP across the full domain.
func ErfInv(x float64) float64 {
	if math.IsNaN(x) {
		return math.NaN()
	}
	switch {
	case x <= -1:
		//lint:allow floatcmp domain boundary: erfinv(-1) is exactly -Inf, anything below is NaN
		if x == -1 {
			return math.Inf(-1)
		}
		return math.NaN()
	case x >= 1:
		//lint:allow floatcmp domain boundary: erfinv(1) is exactly +Inf, anything above is NaN
		if x == 1 {
			return math.Inf(1)
		}
		return math.NaN()
	case x == 0:
		return 0
	}

	// Initial guess: Winitzki's approximation.
	a := 0.147
	ln1x2 := math.Log(1 - x*x)
	t1 := 2/(math.Pi*a) + ln1x2/2
	guess := math.Copysign(math.Sqrt(math.Sqrt(t1*t1-ln1x2/a)-t1), x)

	// Newton–Raphson refinement: f(y) = erf(y) - x,
	// f'(y) = 2/sqrt(pi) * exp(-y^2). A handful of iterations reaches
	// machine precision everywhere, including deep in the tails where the
	// initial guess is weakest.
	y := guess
	for i := 0; i < 8; i++ {
		err := math.Erf(y) - x
		step := err * math.Sqrt(math.Pi) / 2 * math.Exp(y*y)
		y -= step
		if math.Abs(step) <= 1e-16*(1+math.Abs(y)) {
			break
		}
	}
	return y
}

// ErfcInv returns the inverse complementary error function of x,
// for x in (0, 2).
func ErfcInv(x float64) float64 {
	return ErfInv(1 - x)
}

// LogGamma returns the natural logarithm of the absolute value of the Gamma
// function. It is a thin wrapper over math.Lgamma that drops the sign, which
// is always +1 for the positive arguments used in this package.
func LogGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// RegularizedGammaP returns the regularized lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a), for a > 0 and x >= 0.
//
// It switches between the series expansion (x < a+1) and the continued
// fraction for the complement (x >= a+1), the classic Numerical Recipes
// strategy, which converges quickly everywhere we need it (chi-square CDFs
// with small degrees of freedom).
func RegularizedGammaP(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN(), ErrDomain
	}
	if x == 0 {
		return 0, nil
	}
	if x < a+1 {
		return gammaPSeries(a, x), nil
	}
	return 1 - gammaQContinuedFraction(a, x), nil
}

const (
	gammaMaxIter = 500
	gammaEps     = 1e-14
)

// gammaPSeries evaluates P(a,x) via its power series, valid for x < a+1.
func gammaPSeries(a, x float64) float64 {
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-LogGamma(a))
}

// gammaQContinuedFraction evaluates Q(a,x) via Lentz's continued fraction,
// valid for x >= a+1.
func gammaQContinuedFraction(a, x float64) float64 {
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return h * math.Exp(-x+a*math.Log(x)-LogGamma(a))
}

// NormalCDF returns the standard normal cumulative distribution function.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns the inverse standard normal CDF at probability p,
// for p in (0, 1).
func NormalQuantile(p float64) (float64, error) {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		if p == 0 {
			return math.Inf(-1), nil
		}
		//lint:allow floatcmp p = 1 exactly maps to the +Inf quantile; nearby p must go through the solver
		if p == 1 {
			return math.Inf(1), nil
		}
		return math.NaN(), ErrDomain
	}
	return -math.Sqrt2 * ErfcInv(2*p), nil
}

// ChiSquareCDF returns the CDF of the chi-square distribution with k degrees
// of freedom, evaluated at x.
func ChiSquareCDF(x float64, k int) (float64, error) {
	if k <= 0 {
		return math.NaN(), ErrDomain
	}
	if x <= 0 {
		return 0, nil
	}
	return RegularizedGammaP(float64(k)/2, x/2)
}

// studentTCDF returns the CDF of Student's t distribution with nu degrees of
// freedom via the regularized incomplete beta function.
func studentTCDF(t float64, nu float64) float64 {
	if nu <= 0 {
		return math.NaN()
	}
	x := nu / (nu + t*t)
	ib := regularizedBeta(x, nu/2, 0.5)
	if t > 0 {
		return 1 - ib/2
	}
	return ib / 2
}

// StudentTQuantile returns the inverse CDF of Student's t distribution with
// nu degrees of freedom at probability p in (0,1). It is used to build the
// 95% confidence intervals the paper reports on every plotted average.
func StudentTQuantile(p float64, nu float64) (float64, error) {
	if p <= 0 || p >= 1 || nu <= 0 || math.IsNaN(p) {
		return math.NaN(), ErrDomain
	}
	//lint:allow floatcmp the Student-t CDF is symmetric about the exact median; p = 0.5 is a caller-passed sentinel
	if p == 0.5 {
		return 0, nil
	}
	// Bisection on a bracket, then Newton refinement. The CDF is smooth and
	// strictly increasing so this is robust.
	lo, hi := -1e3, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if studentTCDF(mid, nu) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// regularizedBeta computes the regularized incomplete beta function
// I_x(a, b) using the continued fraction expansion (Numerical Recipes betacf).
func regularizedBeta(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	ln := LogGamma(a+b) - LogGamma(a) - LogGamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betaContinuedFraction(x, a, b) / a
	}
	return 1 - front*betaContinuedFraction(1-x, b, a)/b
}

func betaContinuedFraction(x, a, b float64) float64 {
	const tiny = 1e-300
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= gammaMaxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return h
}

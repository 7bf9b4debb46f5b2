// Package stats provides the statistical machinery behind the simulation
// experiments: streaming mean/variance accumulators (Welford), Student-t
// confidence intervals across independent replications (the paper uses 30
// runs with 90% intervals), histograms, and small table/series helpers for
// the experiment drivers.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes running mean and variance (Welford's algorithm).
// The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates an observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 with no observations).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// Interval is a symmetric confidence interval around a mean.
type Interval struct {
	// Mean is the point estimate.
	Mean float64
	// HalfWidth is the half-width of the interval.
	HalfWidth float64
	// Level is the confidence level, e.g. 0.90.
	Level float64
	// N is the number of replications.
	N int
}

// Low returns the lower bound of the interval.
func (ci Interval) Low() float64 { return ci.Mean - ci.HalfWidth }

// High returns the upper bound of the interval.
func (ci Interval) High() float64 { return ci.Mean + ci.HalfWidth }

// Contains reports whether v lies inside the interval.
func (ci Interval) Contains(v float64) bool {
	return v >= ci.Low() && v <= ci.High()
}

// String renders the interval as "m ± h (p%)".
func (ci Interval) String() string {
	return fmt.Sprintf("%.6g ± %.3g (%.0f%%)", ci.Mean, ci.HalfWidth, ci.Level*100)
}

// CI returns the Student-t confidence interval of the accumulated mean at
// the given confidence level (0.80, 0.90, 0.95, or 0.99).
func (a *Accumulator) CI(level float64) Interval {
	ci := Interval{Mean: a.mean, Level: level, N: a.n}
	if a.n >= 2 {
		ci.HalfWidth = TQuantile(level, a.n-1) * a.StdErr()
	}
	return ci
}

// tTable holds two-sided Student-t critical values t_{(1+level)/2, df}.
// Rows: df 1..30, then 40, 60, 120, and the normal limit.
var tTable = map[float64][]struct {
	df int
	t  float64
}{
	0.80: {
		{1, 3.078}, {2, 1.886}, {3, 1.638}, {4, 1.533}, {5, 1.476},
		{6, 1.440}, {7, 1.415}, {8, 1.397}, {9, 1.383}, {10, 1.372},
		{12, 1.356}, {15, 1.341}, {20, 1.325}, {25, 1.316}, {29, 1.311},
		{30, 1.310}, {40, 1.303}, {60, 1.296}, {120, 1.289}, {1 << 30, 1.282},
	},
	0.90: {
		{1, 6.314}, {2, 2.920}, {3, 2.353}, {4, 2.132}, {5, 2.015},
		{6, 1.943}, {7, 1.895}, {8, 1.860}, {9, 1.833}, {10, 1.812},
		{12, 1.782}, {15, 1.753}, {20, 1.725}, {25, 1.708}, {29, 1.699},
		{30, 1.697}, {40, 1.684}, {60, 1.671}, {120, 1.658}, {1 << 30, 1.645},
	},
	0.95: {
		{1, 12.706}, {2, 4.303}, {3, 3.182}, {4, 2.776}, {5, 2.571},
		{6, 2.447}, {7, 2.365}, {8, 2.306}, {9, 2.262}, {10, 2.228},
		{12, 2.179}, {15, 2.131}, {20, 2.086}, {25, 2.060}, {29, 2.045},
		{30, 2.042}, {40, 2.021}, {60, 2.000}, {120, 1.980}, {1 << 30, 1.960},
	},
	0.99: {
		{1, 63.657}, {2, 9.925}, {3, 5.841}, {4, 4.604}, {5, 4.032},
		{6, 3.707}, {7, 3.499}, {8, 3.355}, {9, 3.250}, {10, 3.169},
		{12, 3.055}, {15, 2.947}, {20, 2.845}, {25, 2.787}, {29, 2.756},
		{30, 2.750}, {40, 2.704}, {60, 2.660}, {120, 2.617}, {1 << 30, 2.576},
	},
}

// Levels returns the confidence levels TQuantile tabulates, ascending.
func Levels() []float64 {
	levels := make([]float64, 0, len(tTable))
	for level := range tTable {
		levels = append(levels, level)
	}
	sort.Float64s(levels)
	return levels
}

// TQuantile returns the two-sided Student-t critical value for the given
// confidence level and degrees of freedom. Unsupported levels fall back to
// 0.95; degrees of freedom between table rows use the next smaller row
// (conservative).
func TQuantile(level float64, df int) float64 {
	rows, ok := tTable[level]
	if !ok {
		rows = tTable[0.95]
	}
	if df < 1 {
		df = 1
	}
	best := rows[0].t
	for _, row := range rows {
		if row.df <= df {
			best = row.t
		} else {
			break
		}
	}
	return best
}

// Histogram counts observations in equal-width bins over [Low, High];
// out-of-range observations go to saturating edge bins.
type Histogram struct {
	low, high float64
	bins      []int
	n         int
}

// NewHistogram builds a histogram with the given bounds and bin count.
func NewHistogram(low, high float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	return &Histogram{low: low, high: high, bins: make([]int, bins)}
}

// Add incorporates an observation.
func (h *Histogram) Add(x float64) {
	i := int(float64(len(h.bins)) * (x - h.low) / (h.high - h.low))
	if i < 0 {
		i = 0
	}
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	h.bins[i]++
	h.n++
}

// N returns the number of observations.
func (h *Histogram) N() int { return h.n }

// Bin returns the count of bin i.
func (h *Histogram) Bin(i int) int { return h.bins[i] }

// NumBins returns the number of bins.
func (h *Histogram) NumBins() int { return len(h.bins) }

// Fraction returns the fraction of observations in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.bins[i]) / float64(h.n)
}

// Quantile returns the q-quantile (0..1) of a sample (sorted copy taken).
func Quantile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 < len(s) {
		return s[i]*(1-frac) + s[i+1]*frac
	}
	return s[i]
}

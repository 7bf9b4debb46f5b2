package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.N() != 0 {
		t.Error("zero accumulator not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if math.Abs(a.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", a.Variance(), 32.0/7)
	}
	if math.Abs(a.StdDev()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %v", a.StdDev())
	}
}

// Property: Welford agrees with the naive two-pass computation.
func TestQuickWelfordAgrees(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var a Accumulator
		sum := 0.0
		for _, x := range clean {
			a.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		ss := 0.0
		for _, x := range clean {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(clean)-1)
		scale := math.Max(1, math.Abs(mean))
		if math.Abs(a.Mean()-mean) > 1e-9*scale {
			return false
		}
		vscale := math.Max(1, variance)
		return math.Abs(a.Variance()-variance) < 1e-6*vscale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTQuantile(t *testing.T) {
	tests := []struct {
		level float64
		df    int
		want  float64
	}{
		{0.90, 1, 6.314},
		{0.90, 29, 1.699},
		{0.90, 30, 1.697},
		{0.90, 35, 1.697}, // conservative: next smaller row
		{0.90, 1 << 20, 1.658},
		{0.95, 10, 2.228},
		{0.99, 5, 4.032},
		{0.80, 20, 1.325},
	}
	for _, tt := range tests {
		if got := TQuantile(tt.level, tt.df); got != tt.want {
			t.Errorf("TQuantile(%v, %d) = %v, want %v", tt.level, tt.df, got, tt.want)
		}
	}
	// Unsupported level falls back to 0.95.
	if got := TQuantile(0.5, 10); got != 2.228 {
		t.Errorf("fallback quantile = %v", got)
	}
	if got := TQuantile(0.90, 0); got != 6.314 {
		t.Errorf("df<1 should clamp to 1, got %v", got)
	}
}

func TestCI(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{10, 12, 14, 10, 12, 14} { // mean 12
		a.Add(x)
	}
	ci := a.CI(0.90)
	if math.Abs(ci.Mean-12) > 1e-12 {
		t.Errorf("CI mean = %v", ci.Mean)
	}
	if ci.HalfWidth <= 0 {
		t.Error("CI half-width should be positive")
	}
	if !ci.Contains(12) {
		t.Error("CI must contain its own mean")
	}
	if ci.Contains(100) {
		t.Error("CI should not contain 100")
	}
	if ci.Low() >= ci.High() {
		t.Error("degenerate interval")
	}
	if !strings.Contains(ci.String(), "90%") {
		t.Errorf("String = %q", ci.String())
	}
	// The 99% interval is wider than the 90% one.
	if a.CI(0.99).HalfWidth <= ci.HalfWidth {
		t.Error("99% CI should be wider than 90%")
	}
}

func TestCISingleObservation(t *testing.T) {
	var a Accumulator
	a.Add(5)
	ci := a.CI(0.90)
	if ci.HalfWidth != 0 {
		t.Errorf("single-observation CI half-width = %v, want 0", ci.HalfWidth)
	}
}

package dist

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// checkMean verifies that the empirical mean of d matches d.Mean().
func checkMean(t *testing.T, d meaner, tol float64) {
	t.Helper()
	r := rng.New(123)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		if v < 0 {
			t.Fatalf("%s: negative sample %v", d, v)
		}
		sum += v
	}
	mean := sum / n
	want := d.Mean()
	if math.Abs(mean-want) > tol*math.Max(want, 0.01) {
		t.Errorf("%s: empirical mean %v, want ~%v", d, mean, want)
	}
}

func TestExp(t *testing.T) {
	d := NewExp(4)
	if d.Mean() != 0.25 {
		t.Errorf("Mean = %v", d.Mean())
	}
	checkMean(t, d, 0.02)
}

func TestDet(t *testing.T) {
	d := NewDet(3.5)
	r := rng.New(1)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 3.5 {
			t.Fatal("deterministic sample varies")
		}
	}
	if d.Mean() != 3.5 {
		t.Errorf("Mean = %v", d.Mean())
	}
}

func TestNormalTruncated(t *testing.T) {
	d := NewNormal(0.8, 0.0345) // the paper's radio channel
	checkMean(t, d, 0.02)
	// Heavily truncated case still returns non-negative values.
	bad := NewNormal(-10, 0.1)
	r := rng.New(3)
	if v := bad.Sample(r); v < 0 {
		t.Errorf("truncated normal returned %v", v)
	}
}

func TestErlang(t *testing.T) {
	d := NewErlang(3, 2)
	if d.Mean() != 1.5 {
		t.Errorf("Mean = %v", d.Mean())
	}
	checkMean(t, d, 0.02)
}

func TestErlangVarianceBelowExp(t *testing.T) {
	// Erlang(k) with the same mean has variance mean²/k < mean².
	r := rng.New(4)
	d := NewErlang(4, 4) // mean 1, variance 0.25
	const n = 100000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(variance-0.25) > 0.02 {
		t.Errorf("Erlang(4) variance = %v, want ~0.25", variance)
	}
}

func TestStrings(t *testing.T) {
	tests := []struct {
		d    Distribution
		want string
	}{
		{NewExp(2), "exp(rate=2)"},
		{NewDet(3), "det(3)"},
		{NewNormal(0.8, 0.03), "normal(0.8, 0.03)"},
		{NewErlang(2, 3), "erlang(2, rate=3)"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestSamplingDeterministicAcrossRuns(t *testing.T) {
	d := NewNormal(1, 0.5)
	a, b := rng.New(99), rng.New(99)
	for i := 0; i < 100; i++ {
		if d.Sample(a) != d.Sample(b) {
			t.Fatal("sampling not reproducible")
		}
	}
}

package rng_test

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
)

// truncNormalMoments returns E[X^k] for k = 0..kmax of X ~ N(mu, sigma²)
// conditioned on X ≥ 0. With a = −mu/sigma and Y = (X − mu)/sigma, the
// moments of Y follow m_k = (k−1)·m_(k−2) + a^(k−1)·φ(a)/(1 − Φ(a)), and
// those of X by the binomial expansion of (mu + sigma·Y)^k.
func truncNormalMoments(mu, sigma float64, kmax int) []float64 {
	a := -mu / sigma
	h := math.Exp(-a*a/2) / math.Sqrt(2*math.Pi) / (0.5 * math.Erfc(a/math.Sqrt2))
	my := make([]float64, kmax+1)
	my[0] = 1
	for k := 1; k <= kmax; k++ {
		my[k] = math.Pow(a, float64(k-1)) * h
		if k >= 2 {
			my[k] += float64(k-1) * my[k-2]
		}
	}
	mx := make([]float64, kmax+1)
	for k := range mx {
		binom := 1.0
		for j := 0; j <= k; j++ {
			mx[k] += binom * math.Pow(mu, float64(k-j)) * math.Pow(sigma, float64(j)) * my[j]
			binom = binom * float64(k-j) / float64(j+1)
		}
	}
	return mx
}

// TestTruncatedNormalMoments draws 10⁶ seeded samples of
// dist.Normal{Mu: 1, Sigma: 0.5}, whose truncation at zero removes 2.3% of
// the untruncated mass. Each of the first four raw moments must lie
// within four standard errors — sqrt((E[X^2k] − E[X^k]²)/n) — of the
// truncated normal's; the untruncated mean alone sits 55 of them away.
func TestTruncatedNormalMoments(t *testing.T) {
	const n = 1_000_000
	d := dist.Normal{Mu: 1, Sigma: 0.5}
	want := truncNormalMoments(d.Mu, d.Sigma, 8)
	r := rng.New(7)
	var sum [5]float64
	for range n {
		x := d.Sample(r)
		if x < 0 {
			t.Fatalf("negative sample %v", x)
		}
		p := 1.0
		for k := 1; k <= 4; k++ {
			p *= x
			sum[k] += p
		}
	}
	for k := 1; k <= 4; k++ {
		got := sum[k] / n
		se := math.Sqrt((want[2*k] - want[k]*want[k]) / n)
		if math.Abs(got-want[k]) > 4*se {
			t.Errorf("E[X^%d] = %.6f, want %.6f ± %.6f (4 standard errors)", k, got, want[k], 4*se)
		}
	}
}

// TestTruncNormalMomentsUntruncatedLimit checks the moment formula itself:
// far from zero the truncation vanishes, and the moments are those of the
// plain normal, mu, mu²+σ², mu³+3muσ², mu⁴+6mu²σ²+3σ⁴.
func TestTruncNormalMomentsUntruncatedLimit(t *testing.T) {
	mu, s := 10.0, 1.0
	got := truncNormalMoments(mu, s, 4)
	want := []float64{1, mu, mu*mu + s*s, mu*mu*mu + 3*mu*s*s, math.Pow(mu, 4) + 6*mu*mu*s*s + 3*math.Pow(s, 4)}
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-9*want[k] {
			t.Errorf("E[X^%d] = %v, want %v", k, got[k], want[k])
		}
	}
}

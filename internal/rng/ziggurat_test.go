package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"
)

// stdNormalCDF is Φ, from math.Erf.
func stdNormalCDF(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

// TestNormFloat64KS draws 10⁶ seeded normals: their Kolmogorov–Smirnov
// distance from Φ must stay below its 0.1% critical value 1.949/√n, and
// the tail beyond zigR, which only the slow path reaches, must hold its
// share 2(1 − Φ(zigR)) within four binomial standard errors.
func TestNormFloat64KS(t *testing.T) {
	const n = 1_000_000
	r := New(20040628)
	xs := make([]float64, n)
	tail := 0
	for i := range xs {
		xs[i] = r.NormFloat64()
		if math.Abs(xs[i]) > zigR {
			tail++
		}
	}
	slices.Sort(xs)
	d := 0.0
	for i, x := range xs {
		f := stdNormalCDF(x)
		d = max(d, f-float64(i)/n, float64(i+1)/n-f)
	}
	if crit := 1.949 / math.Sqrt(n); d >= crit {
		t.Errorf("KS distance %.6f, want below the 0.1%% critical value %.6f", d, crit)
	}
	p := 2 * (1 - stdNormalCDF(zigR))
	if se := math.Sqrt(n * p * (1 - p)); math.Abs(float64(tail)-n*p) > 4*se {
		t.Errorf("%d draws beyond ±%v, want %.1f ± %.1f", tail, zigR, n*p, 4*se)
	}
}

// zigTablePin is the FNV-1a hash of the init-built tables: kn as
// little-endian uint32s, then the IEEE-754 bits of wn and of fn. A change
// to the table construction changes every normal draw, so it must change
// this pin too.
const zigTablePin = 0xb7a623f13bb7e890

func TestZigguratTables(t *testing.T) {
	h := fnv.New64a()
	for _, k := range kn {
		h.Write(binary.LittleEndian.AppendUint32(nil, k))
	}
	for _, tab := range [][zigLayers]float64{wn, fn} {
		for _, v := range tab {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	if got := h.Sum64(); got != zigTablePin {
		t.Errorf("table hash %#016x, want %#016x", got, uint64(zigTablePin))
	}

	// The end values in closed form: the base strip's rectangle fraction
	// zigR·f(zigR)/zigV of 2³¹ (Marsaglia and Tsang's published kn[0]),
	// the widest layer's edge zigR, and the density f(zigR) there.
	if kn[0] != 0x76ad2212 {
		t.Errorf("kn[0] = %#x, want 0x76ad2212", kn[0])
	}
	if want := zigR / (1 << 31); wn[zigLayers-1] != want {
		t.Errorf("wn[127] = %v, want zigR/2³¹ = %v", wn[zigLayers-1], want)
	}
	if want := math.Exp(-zigR * zigR / 2); math.Abs(fn[zigLayers-1]-want) > 1e-15*want {
		t.Errorf("fn[127] = %v, want exp(−zigR²/2) = %v", fn[zigLayers-1], want)
	}

	// Every layer above the base has the common area zigV. The top one,
	// which the recursion down from zigR closes at the mode, is off by
	// the 13 digits zigR and zigV are given to.
	for i := 1; i < zigLayers; i++ {
		tol := 1e-12
		if i == 1 {
			tol = 1e-8
		}
		if area := wn[i] * (1 << 31) * (fn[i-1] - fn[i]); math.Abs(area-zigV) > tol*zigV {
			t.Errorf("layer %d has area %v, want %v", i, area, zigV)
		}
	}
	if kn[1] != 0 || fn[0] != 1 {
		t.Errorf("kn[1] = %d, fn[0] = %v; want 0 and 1", kn[1], fn[0])
	}
}

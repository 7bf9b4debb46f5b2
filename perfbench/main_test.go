package main

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestQueriesArePureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		for seed := uint64(1); seed <= 5; seed++ {
			if a, b := w.Queries(seed), w.Queries(seed); !reflect.DeepEqual(a, b) {
				t.Errorf("%s seed %d: two calls give different query lists", w.Name, seed)
			}
		}
		if reflect.DeepEqual(w.Queries(1), w.Queries(2)) {
			t.Errorf("%s: seeds 1 and 2 give the same query list", w.Name)
		}
	}
}

func TestQueriesHaveOnePaperDefault(t *testing.T) {
	for _, w := range workloads {
		refs := 0
		for _, q := range w.Queries(7) {
			if q.Ref != "" {
				refs++
			}
		}
		if refs == 0 {
			t.Errorf("%s: no query is checked against the recorded tables", w.Name)
		}
	}
}

func TestPassesFixedByLength(t *testing.T) {
	w := workload{PassSeconds: 7.2}
	for _, c := range []struct {
		seconds float64
		traced  bool
		want    int
	}{{36, false, 5}, {36, true, 4}, {5, false, 1}, {5, true, 2}} {
		if got := w.passes(c.seconds, c.traced); got != c.want {
			t.Errorf("passes(%v, %v) = %d, want %d", c.seconds, c.traced, got, c.want)
		}
	}
}

func TestEndToEndMetricsScaleMedianTimes(t *testing.T) {
	passes := []passStats{
		{wall: ms(300), cpu: ms(500), alloc: 1 << 20, queries: []time.Duration{ms(100), ms(200)}},
		{wall: ms(100), cpu: ms(100), alloc: 3 << 20, queries: []time.Duration{ms(50), ms(50)}},
		{wall: ms(200), cpu: ms(300), alloc: 2 << 20, queries: []time.Duration{ms(80), ms(100)}},
	}
	m := endToEndMetrics(passes, []time.Duration{ms(1), ms(3), ms(2)}, 2, 0.5)
	for name, want := range map[string]float64{
		"wall_s": 0.1, "cpu_s": 0.15, "setup_s": 0.001, "query_p50_s": 0.045, "alloc_mb": 2,
	} {
		if got := m[name].Value; got < want-1e-12 || got > want+1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestCalibrationKernelIsFixedWork(t *testing.T) {
	if a, b := calibrate(), calibrate(); a != b {
		t.Errorf("two kernel runs give checksums %d and %d", a, b)
	}
}

func TestLogStrata(t *testing.T) {
	v := logStrata(seeded("x", 1), 8, 5, 800)
	for i, x := range v {
		if x < 5 || x > 800 || (i > 0 && x < v[i-1]) {
			t.Fatalf("points %v not increasing within [5, 800]", v)
		}
	}
}

const sampleStudy = `== Sect. 3.1: noninterference ==
simplified rpc (16 states): transparent=false
distinguishing formula:
  EXISTS_WEAK_TRANS(LABEL(a); REACHED_STATE_SAT(TRUE))
revised rpc (546 states): transparent=true

== Fig. 4: Markovian streaming comparison ==
awake_period_ms  energy_per_frame_dpm  quality_dpm
---------------  --------------------  -----------
5                82.4774               0.899236
100              22.4118               0.879511

`

func TestParseReference(t *testing.T) {
	ref := &reference{Tables: map[string]*refTable{}, Verdicts: map[string]*verdict{}}
	if err := parseReference(strings.NewReader(sampleStudy), ref); err != nil {
		t.Fatal(err)
	}
	want := map[string]*verdict{
		"simplified rpc": {States: 16, Transparent: false, Formula: "EXISTS_WEAK_TRANS(LABEL(a); REACHED_STATE_SAT(TRUE))"},
		"revised rpc":    {States: 546, Transparent: true},
	}
	if !reflect.DeepEqual(ref.Verdicts, want) {
		t.Errorf("verdicts %+v, want %+v", ref.Verdicts, want)
	}
	if got, err := ref.Tables["Fig. 4"].cell("100", "quality_dpm"); err != nil || got != "0.879511" {
		t.Errorf("cell = %q, %v", got, err)
	}
	if err := ref.checkRow("Fig. 4", "5", map[string]float64{"energy_per_frame_dpm": 82.47741}); err != nil {
		t.Errorf("matching row rejected: %v", err)
	}
	if err := ref.checkRow("Fig. 4", "5", map[string]float64{"energy_per_frame_dpm": 82.4775}); err == nil {
		t.Error("row off in the sixth digit accepted")
	}
	if err := ref.checkRow("Fig. 4", "7", map[string]float64{"quality_dpm": 1}); err == nil {
		t.Error("missing row accepted")
	}
}

func TestParseRecordedStudies(t *testing.T) {
	ref, err := loadReference("../results/rpcstudy_full.txt", "../results/streamingstudy_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	if v := ref.Verdicts["streaming"]; v == nil || v.States != 38016 || !v.Transparent {
		t.Errorf("streaming verdict %+v", v)
	}
	if v := ref.Verdicts["simplified rpc"]; v == nil || !strings.HasPrefix(v.Formula, "EXISTS_WEAK_TRANS(") {
		t.Errorf("simplified rpc verdict %+v", v)
	}
	for table, rows := range map[string]int{tableFig3: 12, tableFig4: 10, tableFig6: 10} {
		if got := len(ref.Tables[table].Rows); got != rows {
			t.Errorf("%s: %d rows, want %d", table, got, rows)
		}
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "query", Parent: -1, Start: ms(0), End: ms(10), CPU: ms(10), Alloc: 100},
		{Name: "a", Parent: 0, Start: ms(1), End: ms(4), CPU: ms(3), Alloc: 30},
		{Name: "b", Parent: 0, Start: ms(3), End: ms(6), CPU: ms(3), Alloc: 20},
		{Name: "c", Parent: 1, Start: ms(2), End: ms(3), CPU: ms(1), Alloc: 5},
	}
	wall, cpu, alloc := selfTimes(spans)
	// The children of the root cover [1, 6] once, although a and b overlap.
	if want := []time.Duration{ms(5), ms(2), ms(3), ms(1)}; !reflect.DeepEqual(wall, want) {
		t.Errorf("self wall %v, want %v", wall, want)
	}
	if want := []time.Duration{ms(4), ms(2), ms(3), ms(1)}; !reflect.DeepEqual(cpu, want) {
		t.Errorf("self cpu %v, want %v", cpu, want)
	}
	if want := []int64{50, 25, 20, 5}; !reflect.DeepEqual(alloc, want) {
		t.Errorf("self alloc %v, want %v", alloc, want)
	}
}

func TestCoveredClips(t *testing.T) {
	ivs := [][2]time.Duration{{ms(8), ms(12)}, {ms(-2), ms(1)}, {ms(4), ms(5)}}
	if got := covered(ivs, 0, ms(10)); got != ms(4) {
		t.Errorf("covered = %v, want 4ms", got)
	}
}

func TestLayerMetricsAttributeWall(t *testing.T) {
	passes := []passStats{
		{wall: ms(20)},
		{traced: true, wall: ms(22), cnt: counters{"lts.states": 7}, spans: []span{
			{Name: "query", Parent: -1, Start: ms(1), End: ms(21)},
			{Name: "lts.generate", Parent: 0, Start: ms(2), End: ms(8)},
			{Name: "pipeline.sweep", Parent: 0, Start: ms(9), End: ms(19)},
		}},
	}
	m := layerMetrics(passes, nil)
	check := func(name string, want float64) {
		t.Helper()
		if got := m[name].Value; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("lts.generate_s", 0.006)
	check("pipeline.sweep_s", 0.010)
	check("trace.unattributed_s", 0.006)
	check("trace.overhead_s", 0.002)
	check("lts.states", 7)
	for _, lm := range layerTimes {
		if _, ok := m[lm.Name]; !ok {
			t.Errorf("metric %s missing", lm.Name)
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	if i := tr.begin("lts.generate", 0); i != -1 {
		t.Fatalf("begin = %d, want -1", i)
	}
	tr.end(-1)
	if len(tr.spans) != 0 {
		t.Fatalf("disabled tracer recorded %d spans", len(tr.spans))
	}
	if n := testing.AllocsPerRun(100, func() { tr.end(tr.begin("x", 0)) }); n != 0 {
		t.Errorf("disabled span allocates %v times", n)
	}
}

func TestTracerNests(t *testing.T) {
	tr := newTracer(true)
	q := tr.begin("query", 3)
	g := tr.begin("lts.generate", 3)
	tr.end(g)
	tr.end(q)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].Query != 3 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if tr.spans[1].Start < tr.spans[0].Start || tr.spans[1].End > tr.spans[0].End {
		t.Errorf("child interval outside parent: %+v", tr.spans)
	}
}

// Command perfbench is the repository's end-to-end benchmark. It answers
// one workload's query list — the paper's three analysis phases on the
// paper's own models, sized and parameterized from a seed — through the
// public pipeline entry points, checks every answer (paper-default
// queries against the recorded study outputs in results/), and prints
// every metric by name with its unit. The last line of its output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload solve-stress --seed 1 --seconds 36 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced passes,
// times scaled to the machine's fast state (calib.go); with --trace 1 it
// alternates untraced and traced passes and reports the per-layer metrics
// derived from the traced passes' spans, unscaled, which it also writes
// out as JSON lines to .bench_build/spans.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// spansPath is where a traced run writes its spans, one JSON object a line.
const spansPath = ".bench_build/spans.jsonl"

// setupReps is how many times set-up repeats before each pass. One set-up
// takes a few milliseconds, so a single sample would mostly measure the
// host's noise.
const setupReps = 30

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passStats is what one pass over the query list measured.
type passStats struct {
	traced  bool
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	queries []time.Duration
	spans   []span
	cnt     counters
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: functional, solve-stress or sim")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 20, "measuring time; sets how many passes over the query list a run makes")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced passes, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --trace 0|1, --seconds > 0\n", workloadNames())
		return 2
	}
	ref, err := loadReference("results/rpcstudy_full.txt", "results/streamingstudy_full.txt")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	qs := w.Queries(*seed)
	writeEnv(stdout, w, *seed, *trace == 1, qs)
	tr := newTracer(*trace == 1)

	// Set-up runs setupReps times before every pass, so its samples spread
	// over the run like the passes' do; setup_s is their median, and the
	// pass uses the last repetition's output. The calibration kernel runs
	// before each repetition.
	var setupTimes, calibTimes []time.Duration
	var setupSpans [][]span
	doSetup := func(pass int) (prep []*prepared, err error) {
		runtime.GC()
		for range setupReps {
			t0 := time.Now()
			calibrate()
			calibTimes = append(calibTimes, time.Since(t0))
			tr.on, tr.pass, tr.spans = *trace == 1, pass, nil
			t0 = time.Now()
			prep, err = setup(qs, tr)
			setupTimes = append(setupTimes, time.Since(t0))
			setupSpans = append(setupSpans, tr.spans)
			if err != nil {
				return nil, err
			}
		}
		return prep, nil
	}

	var passes []passStats
	attempted, failed := 0, 0
	for pass := range w.passes(*seconds, *trace == 1) {
		prep, err := doSetup(pass)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
			return 1
		}
		ps := passStats{traced: *trace == 1 && pass%2 == 1, cnt: counters{}}
		tr.on, tr.pass, tr.spans = ps.traced, pass, nil
		runtime.GC()
		cpu0, alloc0, t0 := cpuTime(), totalAlloc(), time.Now()
		for id, q := range qs {
			tq := time.Now()
			ans, err := runQuery(id, q, prep[id], tr, ps.cnt)
			ps.queries = append(ps.queries, time.Since(tq))
			attempted++
			if err == nil {
				err = check(q, ans, ref)
			}
			if err != nil {
				failed++
				fmt.Fprintf(stderr, "perfbench: pass %d query %s: %v\n", pass, q.Name, err)
			}
		}
		ps.wall, ps.cpu, ps.alloc = time.Since(t0), cpuTime()-cpu0, totalAlloc()-alloc0
		ps.spans = tr.spans
		passes = append(passes, ps)
		var times []string
		for i, d := range ps.queries {
			times = append(times, fmt.Sprintf("%s=%.3f", qs[i].Name, d.Seconds()))
		}
		fmt.Fprintf(stderr, "perfbench: %s seed %d pass %d traced=%v wall %.3fs cpu %.3fs [%s]\n",
			w.Name, *seed, pass, ps.traced, ps.wall.Seconds(), ps.cpu.Seconds(), strings.Join(times, " "))
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if *trace == 1 {
		res.Metrics = layerMetrics(passes, setupSpans)
		var all []span
		for _, s := range setupSpans {
			all = append(all, s...)
		}
		for _, p := range passes {
			all = append(all, p.spans...)
		}
		if err := writeSpans(spansPath, all); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	} else {
		scale := float64(calibRef) / float64(median(calibTimes))
		fmt.Fprintf(stderr, "perfbench: calibration kernel median %.3fms, times scaled by %.4f\n",
			median(calibTimes).Seconds()*1e3, scale)
		res.Metrics = endToEndMetrics(passes, setupTimes, len(qs), scale)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// endToEndMetrics summarizes the untraced passes. Every pass does the
// same deterministic work, and a run makes a fixed number of them, so
// each timing is a median over the run: of the passes (wall_s, cpu_s,
// alloc_mb), of the set-ups (setup_s), and over queries of each query's
// median time (query_p50_s). Times are multiplied by scale, which takes
// out the machine's speed state (see calib.go).
func endToEndMetrics(passes []passStats, setupTimes []time.Duration, nq int, scale float64) map[string]metric {
	var wall, cpu []time.Duration
	var alloc []float64
	perQuery := make([][]time.Duration, nq)
	for _, p := range passes {
		wall = append(wall, p.wall)
		cpu = append(cpu, p.cpu)
		alloc = append(alloc, float64(p.alloc))
		for i, d := range p.queries {
			perQuery[i] = append(perQuery[i], d)
		}
	}
	queryTimes := make([]time.Duration, nq)
	for i, ds := range perQuery {
		queryTimes[i] = median(ds)
	}
	return map[string]metric{
		"wall_s":      {median(wall).Seconds() * scale, "s"},
		"query_p50_s": {median(queryTimes).Seconds() * scale, "s"},
		"cpu_s":       {median(cpu).Seconds() * scale, "s"},
		"setup_s":     {median(setupTimes).Seconds() * scale, "s"},
		"peak_rss_mb": {float64(peakRSS()) / (1 << 20), "MB"},
		"alloc_mb":    {median(alloc) / (1 << 20), "MB"},
	}
}

// layerMetric describes one per-layer metric derived from span names.
type layerMetric struct {
	Name string // metric name
	Span string // span whose self time, CPU or allocations it sums
	What string // "wall", "cpu" or "alloc"
}

// layerTimes are the span-derived per-layer metrics, in report order.
var layerTimes = []layerMetric{
	{"models.build_s", "models.build", "wall"},
	{"aemilia.parse_s", "aemilia.parse", "wall"},
	{"elab.elaborate_s", "elab.elaborate", "wall"},
	{"noninterference.check_s", "noninterference.check", "wall"},
	{"noninterference.check_alloc_mb", "noninterference.check", "alloc"},
	{"lts.generate_s", "lts.generate", "wall"},
	{"lts.generate_cpu_s", "lts.generate", "cpu"},
	{"lts.generate_alloc_mb", "lts.generate", "alloc"},
	{"compose.minimize_s", "compose.minimize", "wall"},
	{"ctmc.build_s", "ctmc.build", "wall"},
	{"pipeline.phase2_s", "pipeline.phase2", "wall"},
	{"pipeline.sweep_s", "pipeline.sweep", "wall"},
	{"pipeline.sweep_cpu_s", "pipeline.sweep", "cpu"},
	{"pipeline.sweep_alloc_mb", "pipeline.sweep", "alloc"},
	{"sim.run_s", "sim.run", "wall"},
	{"sim.run_cpu_s", "sim.run", "cpu"},
	{"sim.alloc_mb", "sim.run", "alloc"},
}

// layerCounts are the deterministic per-layer counts, in report order.
var layerCounts = []string{
	"noninterference.hidden_states", "noninterference.restricted_states",
	"lts.states", "lts.edges",
	"ctmc.tangible", "ctmc.vanishing",
	"ctmc.iterations", "ctmc.cycles", "ctmc.attempts",
	"ctmc.solves_gauss_seidel", "ctmc.solves_jacobi", "ctmc.solves_multilevel",
	"pipeline.points", "pipeline.escalated_points",
	"sim.events",
}

// layerMetrics derives the per-layer metrics of a traced run: per pass,
// the self time, CPU and allocations of each layer's spans and the
// layer counts; reported as medians over the traced passes (set-up
// layers over the set-up repetitions).
func layerMetrics(passes []passStats, setupSpans [][]span) map[string]metric {
	out := map[string]metric{}
	perPass := func(spans []span) map[string]float64 {
		wall, cpu, alloc := selfTimes(spans)
		sums := map[string]float64{}
		for i, s := range spans {
			sums[s.Name+"/wall"] += wall[i].Seconds()
			sums[s.Name+"/cpu"] += cpu[i].Seconds()
			sums[s.Name+"/alloc"] += float64(alloc[i]) / (1 << 20)
			if s.Name != "query" {
				sums["layers/wall"] += wall[i].Seconds()
			}
		}
		return sums
	}
	var traced, untraced []float64
	var sums []map[string]float64
	var cnts []counters
	for _, p := range passes {
		if !p.traced {
			untraced = append(untraced, p.wall.Seconds())
			continue
		}
		traced = append(traced, p.wall.Seconds())
		s := perPass(p.spans)
		s["unattributed"] = p.wall.Seconds() - s["layers/wall"]
		sums = append(sums, s)
		cnts = append(cnts, p.cnt)
	}
	var setupSums []map[string]float64
	for _, sp := range setupSpans {
		setupSums = append(setupSums, perPass(sp))
	}
	pick := func(ms []map[string]float64, key string) float64 {
		var vs []float64
		for _, m := range ms {
			vs = append(vs, m[key])
		}
		return median(vs)
	}
	for _, lm := range layerTimes {
		src := sums
		if strings.HasPrefix(lm.Span, "models.") || strings.HasPrefix(lm.Span, "aemilia.") || strings.HasPrefix(lm.Span, "elab.") {
			src = setupSums
		}
		unit := "s"
		if lm.What == "alloc" {
			unit = "MB"
		}
		out[lm.Name] = metric{pick(src, lm.Span+"/"+lm.What), unit}
	}
	for _, name := range layerCounts {
		var vs []float64
		for _, c := range cnts {
			vs = append(vs, c[name])
		}
		out[name] = metric{median(vs), "count"}
	}
	full, minimized := 0.0, 0.0
	if len(cnts) > 0 {
		full, minimized = cnts[0]["compose.full"], cnts[0]["compose.minimized"]
	}
	red := 0.0
	if minimized > 0 {
		red = full / minimized
	}
	out["compose.reduction"] = metric{red, "ratio"}
	runS, events := out["sim.run_s"].Value, out["sim.events"].Value
	eps := 0.0
	if runS > 0 {
		eps = events / runS
	}
	out["sim.events_per_s"] = metric{eps, "1/s"}
	out["trace.overhead_s"] = metric{median(traced) - median(untraced), "s"}
	out["trace.unattributed_s"] = metric{pick(sums, "unattributed"), "s"}
	return out
}

func median[T ~int64 | ~float64](vs []T) T {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// prediction states, before any change is measured, which end-to-end
// metric a per-layer metric should move and on which workload — and
// where it should not move. Later changes cite these rows by metric name.
type prediction struct {
	Layer   []string `json:"layer"`
	Moves   []string `json:"moves"`
	Matters string   `json:"matters_on"`
	Unmoved string   `json:"unmoved_on"`
}

var predictions = []prediction{
	{[]string{"aemilia.parse_s", "elab.elaborate_s", "models.build_s"}, []string{"setup_s"}, "all", "-"},
	{[]string{"noninterference.check_s", "noninterference.check_alloc_mb", "noninterference.hidden_states", "noninterference.restricted_states"},
		[]string{"wall_s", "query_p50_s", "alloc_mb"}, "functional", "solve-stress, sim (not called)"},
	{[]string{"lts.generate_s", "lts.generate_cpu_s", "lts.generate_alloc_mb", "lts.states", "lts.edges"},
		[]string{"wall_s", "cpu_s", "peak_rss_mb"}, "functional (a third)", "solve-stress (folded, small), sim"},
	{[]string{"compose.minimize_s", "compose.reduction"}, []string{"wall_s"}, "solve-stress", "functional, sim (not called)"},
	{[]string{"ctmc.build_s", "ctmc.tangible", "ctmc.vanishing"}, []string{"wall_s"}, "solve-stress (small)", "functional, sim (not called)"},
	{[]string{"pipeline.phase2_s", "ctmc.iterations", "ctmc.cycles", "ctmc.attempts", "ctmc.solves_gauss_seidel", "ctmc.solves_jacobi", "ctmc.solves_multilevel"},
		[]string{"wall_s", "query_p50_s"}, "solve-stress", "functional, sim"},
	{[]string{"pipeline.sweep_s", "pipeline.sweep_cpu_s", "pipeline.sweep_alloc_mb", "pipeline.points", "pipeline.escalated_points"},
		[]string{"wall_s", "cpu_s"}, "solve-stress", "functional, sim"},
	{[]string{"sim.run_s", "sim.run_cpu_s", "sim.events", "sim.events_per_s", "sim.alloc_mb"},
		[]string{"wall_s", "cpu_s"}, "sim", "functional, solve-stress"},
	{[]string{"trace.overhead_s", "trace.unattributed_s"}, nil, "all", "-"},
}

// environment is the record printed ahead of the result line.
type environment struct {
	Workload    string       `json:"workload"`
	Why         string       `json:"why"`
	Seed        uint64       `json:"seed"`
	NumCPU      int          `json:"nproc"`
	CPU         string       `json:"cpu_model"`
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Workers     int          `json:"workers"`
	Queries     []string     `json:"queries"`
	Predictions []prediction `json:"predictions,omitempty"`
}

// writeEnv prints the environment record as one "env" JSON line; a
// traced run also carries the per-layer predictions.
func writeEnv(w io.Writer, wl workload, seed uint64, withPredictions bool, qs []query) {
	env := environment{
		Workload: wl.Name, Why: wl.Why, Seed: seed,
		NumCPU: runtime.NumCPU(), CPU: cpuModel(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
	}
	for _, q := range qs {
		env.Queries = append(env.Queries, q.Name)
	}
	if withPredictions {
		env.Predictions = predictions
	}
	b, err := json.Marshal(env)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "env %s\n", b)
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

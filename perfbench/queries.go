package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/models"
)

// Query kinds: one session each, driven through the public entry points.
const (
	// kindCheck generates the functional state space and runs the Sect. 3
	// noninterference check.
	kindCheck = "check"
	// kindMarkov generates (optionally compose-minimized), builds the
	// chain, then solves at the model's rates (Phase2) and/or sweeps rate
	// points.
	kindMarkov = "markov"
	// kindSim simulates the general model (Phase3).
	kindSim = "sim"
)

// Model families.
const (
	famRPCSimplified = "rpc-simplified"
	famRPC           = "rpc"
	famStreaming     = "streaming"
)

// query is one unit of work of a workload. It is plain data — the query
// list is a pure function of the workload and the seed, and two lists
// compare with reflect.DeepEqual.
type query struct {
	Name   string
	Kind   string
	Family string
	RPC    models.RPCParams
	Stream models.StreamingParams
	// Minimize selects the compositional-minimization Markovian path.
	Minimize bool
	// Phase2 solves at the model's built-in rates.
	Phase2 bool
	// Points are the swept timeouts (rpc) or awake periods (streaming) in
	// ms; each becomes the rate 1/x of the model's single rate slot.
	Points []float64
	// RunLength, Warmup, Replications and SimSeed set a simulation.
	RunLength, Warmup float64
	Replications      int
	SimSeed           uint64
	// Ref names the recorded result the answer must match; empty for a
	// seeded query, which gets the generic sanity checks only.
	Ref string
}

// workload is one benchmark workload: its query list as a function of the
// seed and the reason it exists.
type workload struct {
	Name    string
	Why     string
	Queries func(seed uint64) []query
	// PassSeconds is what one pass (set-up and query list) takes on the
	// 2-core reference machine under typical host load. It fixes the
	// number of passes a run makes, so that a faster commit takes as many
	// samples as a slower one.
	PassSeconds float64
}

// passes is the number of passes a run of the given length makes: as many
// as fit at PassSeconds each, at least one — two when traced, which
// alternate untraced and traced passes, so the count is even.
func (w workload) passes(seconds float64, traced bool) int {
	n := max(1, int(seconds/w.PassSeconds))
	if traced {
		n = max(2, n&^1)
	}
	return n
}

// workloads lists every workload in the order BENCHMARK.json gives them.
var workloads = []workload{
	{
		Name: "functional",
		Why: "Sect. 3 noninterference checks: weak-bisimulation saturate/refine dominates and " +
			"the ctmc and sim layers never run, so a bisimulation change shows here and nowhere else",
		Queries:     functionalQueries,
		PassSeconds: 3.6,
	},
	{
		Name: "solve-stress",
		Why: "Fig. 3-left rpc solves and compose-minimized streaming at 12-buffer capacity: the steady-state " +
			"solver takes nearly all the time, so solver schemes and escalation rungs are judged here",
		Queries:     stressQueries,
		PassSeconds: 7.2,
	},
	{
		Name: "sim",
		Why: "Fig. 3-right and Fig. 6 GSMP simulations: sim.Run is nearly all the time and " +
			"generation and the solver never run",
		Queries:     simQueries,
		PassSeconds: 5.0,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seeded returns the workload's random stream for seed. The stream is
// math/rand's, whose sequence for a given seed is fixed by the Go 1
// compatibility promise, so a seed names the same inputs on every commit.
func seeded(name string, seed uint64) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return rand.New(rand.NewSource(int64(h ^ seed*0x9e3779b97f4a7c15)))
}

// logStrata draws n increasing values in [lo, hi], one log-uniformly in
// each of n equal log-width strata, rounded to 0.1. Stratifying keeps the
// spread of the points — and so the solver's work on them — nearly the
// same for every seed.
func logStrata(r *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		u := (float64(i) + r.Float64()) / float64(n)
		out[i] = math.Round(lo*math.Pow(hi/lo, u)*10) / 10
	}
	return out
}

// shape is an (AP, client) buffer-capacity pair of the streaming model.
type shape [2]int64

// pickShapes draws one shape from each class. A class holds shapes whose
// queries cost about the same (measured on the 2-core reference machine),
// so the seed moves sizes without moving the work of the query list.
func pickShapes(r *rand.Rand, classes [][]shape) []shape {
	out := make([]shape, len(classes))
	for i, c := range classes {
		out[i] = c[r.Intn(len(c))]
	}
	return out
}

func functionalStreaming(ap, client int64) models.StreamingParams {
	p := models.DefaultStreamingParams()
	p.Mode = models.Functional
	p.APCapacity, p.ClientCapacity = ap, client
	return p
}

// functionalQueries are the Sect. 3.1 rpc checks and seeded streaming
// checks. The Sect. 3.2 streaming check at the paper's capacity 10 is left
// out: its single 7-11 s weak-bisimulation run swings by a quarter with
// host contention, more than any bound allows; the seeded checks run the
// same code on smaller buffers.
func functionalQueries(seed uint64) []query {
	rev := models.DefaultRPCParams()
	rev.Mode = models.Functional
	qs := []query{
		{Name: "sect3-rpc-simplified", Kind: kindCheck, Family: famRPCSimplified, Ref: refSect3RPCSimplified},
		{Name: "sect3-rpc-revised", Kind: kindCheck, Family: famRPC, RPC: rev, Ref: refSect3RPCRevised},
	}
	r := seeded("functional", seed)
	for _, c := range pickShapes(r, functionalShapes) {
		qs = append(qs, query{
			Name: fmt.Sprintf("check-streaming-%dx%d", c[0], c[1]), Kind: kindCheck,
			Family: famStreaming, Stream: functionalStreaming(c[0], c[1]),
		})
	}
	return qs
}

// Sizes of the seeded parts of each query list: shape classes and point
// counts.
var (
	// functionalShapes: each class is a shape and its mirror image, whose
	// checks cost the same to within a few percent (0.2 s to 0.65 s);
	// the seed picks the orientation.
	functionalShapes = [][]shape{
		{{3, 6}, {6, 3}},
		{{4, 5}, {5, 4}},
		{{4, 6}, {6, 4}},
		{{5, 6}, {6, 5}},
		{{4, 8}, {8, 4}},
		{{5, 7}, {7, 5}},
	}
	// stressCount, stressCapacity: three minimized 12×12 chains (3.2k
	// states), each solved and swept at its own seeded periods in about
	// 1.8 s; with the three millisecond rpc solves and the capacity-10
	// parity query, the median query is the parity query. Shapes of equal
	// state count differ by up to 1.5× in solver work, so the seed moves
	// the periods here, not the buffer sizes.
	stressCount    = 3
	stressCapacity = int64(12)
	stressPeriods  = 8
	// simRPC and simStreaming count the seeded simulations.
	simRPC       = 2
	simStreaming = 1
)

func stressQueries(seed uint64) []query {
	r := seeded("solve-stress", seed)
	nodpm := models.DefaultRPCParams()
	nodpm.WithDPM = false
	t0 := models.DefaultRPCParams()
	t0.ShutdownTimeout = 0
	swept := models.DefaultRPCParams()
	swept.ParametricTimeout = true
	p10 := models.DefaultStreamingParams()
	p10.ParametricPeriod = true
	qs := []query{
		{Name: "fig3-nodpm", Kind: kindMarkov, Family: famRPC, RPC: nodpm, Phase2: true, Ref: refFig3NoDPM},
		{Name: "fig3-timeout0", Kind: kindMarkov, Family: famRPC, RPC: t0, Phase2: true, Ref: refFig3Timeout0},
		{Name: "fig3-sweep", Kind: kindMarkov, Family: famRPC, RPC: swept, Points: paperTimeouts(), Ref: refFig3Sweep},
		{Name: "fig4-minimized", Kind: kindMarkov, Family: famStreaming, Stream: p10, Minimize: true,
			Phase2: true, Points: paperPeriods(), Ref: refFig4Minimized},
	}
	for i := range stressCount {
		p := models.DefaultStreamingParams()
		p.ParametricPeriod = true
		p.APCapacity, p.ClientCapacity = stressCapacity, stressCapacity
		qs = append(qs, query{
			Name: fmt.Sprintf("stress-streaming-%dx%d-%d", stressCapacity, stressCapacity, i+1), Kind: kindMarkov,
			Family: famStreaming, Stream: p, Minimize: true, Phase2: true,
			Points: logStrata(r, stressPeriods, 5, 800),
		})
	}
	return qs
}

// fig6Streaming is the general streaming model of Fig. 6: real-time frame
// deadlines with the sweep's debt cap and slack.
func fig6Streaming(period float64, withDPM bool) models.StreamingParams {
	p := models.DefaultStreamingParams()
	p.DeadlineDebtCap, p.DeadlineSlack = 12, 2
	p.AwakePeriod = period
	p.WithDPM = withDPM
	return p
}

// Simulation settings of Fig. 3-right and Fig. 6.
const (
	rpcRunLength, rpcWarmup             = 20000, 500
	streamingRunLength, streamingWarmup = 400000, 2000
	paperReplications                   = 30
	paperSimSeed                        = 20040628
)

func simQueries(seed uint64) []query {
	r := seeded("sim", seed)
	qs := []query{
		{Name: "fig6-nodpm", Kind: kindSim, Family: famStreaming, Stream: fig6Streaming(100, false),
			RunLength: streamingRunLength, Warmup: streamingWarmup, Replications: paperReplications,
			SimSeed: paperSimSeed, Ref: refFig6NoDPM},
		{Name: "fig6-period100", Kind: kindSim, Family: famStreaming, Stream: fig6Streaming(100, true),
			RunLength: streamingRunLength, Warmup: streamingWarmup, Replications: paperReplications,
			SimSeed: paperSimSeed, Ref: refFig6Period100},
	}
	for _, T := range logStrata(r, simRPC, 2, 12) {
		p := models.DefaultRPCParams()
		p.ShutdownTimeout = T
		qs = append(qs, query{
			Name: fmt.Sprintf("sim-rpc-%g", T), Kind: kindSim, Family: famRPC, RPC: p,
			RunLength: rpcRunLength, Warmup: rpcWarmup, Replications: paperReplications,
			SimSeed: r.Uint64(),
		})
	}
	for _, P := range logStrata(r, simStreaming, 80, 125) {
		qs = append(qs, query{
			Name: fmt.Sprintf("sim-streaming-%g", P), Kind: kindSim, Family: famStreaming,
			Stream:    fig6Streaming(P, true),
			RunLength: streamingRunLength, Warmup: streamingWarmup, Replications: paperReplications,
			SimSeed: r.Uint64(),
		})
	}
	return qs
}

// paperTimeouts are the positive shutdown timeouts of Fig. 3 (ms); the
// zero timeout is a structurally different model, solved on its own.
func paperTimeouts() []float64 {
	return []float64{0.5, 1, 2, 3, 5, 7.5, 10, 12.5, 15, 20, 25}
}

// paperPeriods are the PSP awake periods of Fig. 4 and Fig. 6 (ms).
func paperPeriods() []float64 {
	return []float64{5, 10, 25, 50, 100, 200, 300, 400, 600, 800}
}

// Package pipeline is the session/handle layer of the analysis pipeline:
// one content-addressed elaborate→generate→solve API that every
// experiment driver, CLI, and future service front-end runs through.
//
// A Session is a handle on the staged artifacts of one Spec — the
// elaborated model, the generated LTS, the built CTMC (with its cached
// structural solve plan), and the Phase2 report. Each stage is
// built lazily exactly once per session state (single-flight, context
// aware) and shared by every handle opened on the same SpecHash through a
// Manager, so overlapping requests collapse onto shared work instead of
// regenerating it. One-shot callers open an ephemeral NewSession; the
// experiment drivers intern theirs in a Manager. Both run the same staged
// code, so their results are bit-identical by construction.
//
// The Session methods are the three phases of the paper's incremental
// methodology (Fig. 1), each consuming the model of the previous one:
//
//  1. Functional phase (Phase1) — noninterference analysis of the
//     untimed model: the DPM must be transparent to the client.
//  2. Markovian phase (Phase2, Sweep) — the model enriched with
//     exponentially distributed durations; the CTMC is solved and
//     reward-based measures are compared with and without the DPM.
//  3. General phase (Phase3, Validate) — exponential delays replaced by
//     general distributions; the model is first validated against the
//     Markovian one by simulating it with exponential durations, then
//     simulated with the realistic durations.
package pipeline

import (
	"context"

	"repro/internal/ctmc"
)

// Config carries the per-caller environment a Session runs under: the
// scheduling knobs (workers, lane width), the cancellation context, and
// the result store. None of it participates in the SpecHash — results
// are bit-identical at any Config — so sessions opened with different
// Configs still share one set of staged artifacts. The extra fields
// (Solve, CheckpointDir, CheckpointResume) are conventions for the layers
// above: internal/experiments builds its specs and checkpoint paths from
// them, so one Config constructed from CLI flags configures the whole
// run.
type Config struct {
	// Workers bounds the concurrency of everything the session schedules:
	// sweep points in flight and simulation replications (when
	// SimSettings leaves Workers unset). 0 keeps each layer's own default.
	// State-space generation and the steady-state solver are sequential
	// and never read it. Results are bit-identical at any value.
	Workers int
	// LaneWidth is the chunk size of batched steady-state solves in
	// Session sweeps: 0 auto-selects DefaultLaneWidth, and any other K
	// solves each chunk of K points as ⌈K/8⌉ eight-lane groups — at 1, one
	// point per chunk. Results are bit-identical at any value.
	LaneWidth int
	// Ctx cancels the session's work: generation polls it at BFS level
	// boundaries, solvers per iteration, sweeps at point boundaries, and
	// stage waiters while another caller builds. A cancellation surfaces
	// as a *fault.CanceledError and never poisons the session: the
	// interrupted stage is retried by the next caller. Nil disables
	// cancellation.
	Ctx context.Context
	// Solve is the base steady-state solver configuration the experiment
	// drivers copy into their specs. The session itself reads solver
	// options from the Spec.
	Solve ctmc.SolveOptions
	// Minimize is the compositional-minimization policy the experiment
	// drivers copy into their specs (Spec.Minimize): lump each component
	// before composition and fold vanishing states during generation, so
	// the full product never materializes. Unlike the scheduling knobs it
	// is semantic once copied into a Spec — it changes the generated LTS
	// (never the measure values) and participates in the SpecHash there.
	// The session itself reads it from the Spec.
	Minimize bool
	// CheckpointDir, when non-empty, makes every experiment sweep
	// resumable: each sweep checkpoints to <dir>/<name>.ckpt and, when
	// CheckpointResume is set, replays completed points from an existing
	// file — bit-identical to an uninterrupted run.
	CheckpointDir    string
	CheckpointResume bool
	// Store, when non-nil, memoizes Phase2 reports content-addressed by
	// SpecHash + point, so repeated or overlapping grids return
	// cached results. Determinism makes the cache transparent: a hit
	// deep-equals the fresh solve it replaces.
	Store Store
}

// SimSettings tunes the simulation runs of the third phase.
type SimSettings struct {
	// RunLength is the measured horizon per replication.
	RunLength float64
	// Warmup is the discarded start-up time.
	Warmup float64
	// Replications is the number of runs (default 30, the paper's choice).
	Replications int
	// Seed seeds the master random stream.
	Seed uint64
	// ConfidenceLevel of the reported intervals: 0.80, 0.90, 0.95 or
	// 0.99 (default 0.90).
	ConfidenceLevel float64
	// Workers bounds the concurrency of the experiment: the number of
	// simulation replications in flight (sim.Config.Workers) and, for the
	// sweep drivers in internal/experiments, the number of concurrent
	// sweep points. 0 falls back to the session Config's Workers. Results
	// are bit-identical at any worker count.
	Workers int
	// Ctx cancels the simulation (see sim.Config.Ctx); nil falls back to
	// the session Config's Ctx.
	Ctx context.Context
}

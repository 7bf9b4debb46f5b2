// Package pipeline is the session layer of the analysis pipeline:
// one content-addressed elaborate→generate→solve API that every
// experiment driver, CLI, and future service front-end runs through.
//
// A Session is the staged pipeline of one Spec — the elaborated model,
// the generated LTS, the built CTMC (with its cached structural solve
// plan), and the Phase2 report. Each stage is built lazily at most once
// per session, and concurrent callers wait for that one build instead of
// repeating it. Sessions share no artifacts: what outlives a session is
// the result Store, keyed by the spec's content (ResultKey), so a later
// session — in this process, or in one that resumes from a FileStore —
// answers from it what an earlier one solved.
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

import "context"

// Config carries the per-caller environment a Session runs under: the
// worker count, the cancellation context, and the result store. None of
// it participates in the store key — results are bit-identical at any
// Config.
type Config struct {
	// Workers bounds the concurrency of everything the session schedules:
	// sweep points in flight and simulation replications. 0 keeps each
	// layer's own default.
	// State-space generation and the steady-state solver are sequential
	// and never read it, and the Phase 1 check always runs on two
	// goroutines (see package noninterference). Results are bit-identical
	// at any value.
	Workers int
	// Ctx cancels the session's work: generation polls it at BFS level
	// boundaries, solvers per iteration, sweeps at point boundaries, and
	// simulations between events. A cancellation surfaces as a
	// *fault.CanceledError and is final for its session: the stage it
	// interrupted returns it to every later caller. Resume on a new
	// session, which a Store answers for what the canceled one finished.
	// Nil disables cancellation.
	Ctx context.Context
	// Store, when non-nil, memoizes Phase2 and sweep reports keyed by
	// the spec's description, everything else that shapes a result, and
	// the point (ResultKey), so repeated or overlapping grids return
	// cached results. Determinism makes the cache transparent: a hit
	// equals the fresh solve it replaces. A FileStore makes the whole
	// run resumable: a later run opened on the same file solves only
	// what this one did not finish. Stores key a spec by its Arch, so a
	// spec that supplies a pre-elaborated Model cannot use one.
	Store Store
}

// SimSettings tunes the simulation runs of the third phase.
type SimSettings struct {
	// RunLength is the measured horizon per replication.
	RunLength float64
	// Warmup is the discarded start-up time.
	Warmup float64
	// Replications is the number of runs (default 30, the paper's choice;
	// at least 2, see sim.Config).
	Replications int
	// Seed seeds the master random stream.
	Seed uint64
	// ConfidenceLevel of the reported intervals: 0.80, 0.90, 0.95 or
	// 0.99 (default 0.90).
	ConfidenceLevel float64
}

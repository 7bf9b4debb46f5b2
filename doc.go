// Package repro is a Go reproduction of "Assessing the Impact of Dynamic
// Power Management on the Functionality and the Performance of
// Battery-Powered Appliances" (Acquaviva, Aldini, Bernardo, Bogliolo,
// Bontà, Lattanzi — DSN 2004).
//
// The repository implements the paper's incremental methodology end to
// end — an Æmilia-style stochastic process-algebraic architectural
// description language, a weak-bisimulation equivalence checker with
// distinguishing-formula generation, a noninterference analyser, a CTMC
// extractor and solver with reward structures, and a GSMP discrete-event
// simulator for general distributions — together with the paper's two
// case studies (a power-manageable RPC server and a streaming-video
// client behind a power-manageable 802.11b NIC) and drivers regenerating
// every table and figure of the evaluation.
//
// Entry points:
//
//   - internal/pipeline   — the three-phase methodology (Fig. 1) as
//     staged sessions: Phase1, Phase2, Sweep, Phase3, Validate
//   - internal/models     — the rpc and streaming case studies
//   - internal/experiments — one driver per paper figure
//   - cmd/dpmassess       — CLI over .aem files
//   - cmd/rpcstudy, cmd/streamingstudy — figure regeneration
//   - examples/           — runnable walkthroughs
//
// See README.md for a quickstart, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured record. The benchmarks in
// bench_test.go regenerate each figure (go test -bench=.).
package repro

// Command rpcstudy regenerates the rpc results of the paper: the Sect. 3.1
// noninterference verdicts with the diagnostic formula, the Markovian
// comparison of Fig. 3 (left), the general-model comparison of Fig. 3
// (right), the cross-validation of Fig. 5, and the energy/waiting-time
// trade-off of Fig. 7.
//
// Usage:
//
//	rpcstudy [-experiment all|sect3|fig3markov|fig3general|fig5|fig7]
//	         [-csv] [-quick] [-compose full|minimize] [-workers N] [-lanes K]
//	         [-timeout D] [-checkpoint DIR] [-resume]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/pipeline"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rpcstudy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rpcstudy", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "which experiment to run (all, sect3, fig3markov, fig3general, fig5, fig7, policies, battery)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	quick := fs.Bool("quick", false, "shorter simulations (smoke run)")
	composeMode := fs.String("compose", "full",
		"composition strategy for the Markovian analyses: full generates the\n"+
			"plain parallel product, minimize lumps each component before\n"+
			"composition and folds vanishing states during generation (measure\n"+
			"values are identical either way)")
	workers := fs.Int("workers", runtime.NumCPU(),
		"concurrent sweep points, simulation replications, state-space generation\n"+
			"workers, and steady-state solver workers (results are identical at any value)")
	lanes := fs.Int("lanes", 0,
		"sweep points solved per batched steady-state call: 0 auto-selects,\n"+
			"1 forces the per-point solver (results are identical at any value)")
	timeout := fs.Duration("timeout", 0,
		"overall deadline: generation, solves, sweeps and simulations are\n"+
			"canceled promptly once it expires (0 = no deadline)")
	ckptDir := fs.String("checkpoint", "",
		"directory for sweep checkpoints: Markovian sweeps periodically save\n"+
			"completed points there and become resumable (empty = disabled)")
	resume := fs.Bool("resume", false,
		"resume Markovian sweeps from existing checkpoints in -checkpoint DIR,\n"+
			"re-solving only the missing points (results are identical to an\n"+
			"uninterrupted run)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := pipeline.Config{
		Workers:   *workers,
		LaneWidth: *lanes,
		Store:     pipeline.NewMemoryStore(),
	}
	switch *composeMode {
	case "full":
	case "minimize":
		cfg.Minimize = true
	default:
		return fmt.Errorf("unknown -compose mode %q (want full or minimize)", *composeMode)
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		cfg.Ctx = ctx
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint DIR")
	}
	cfg.CheckpointDir = *ckptDir
	cfg.CheckpointResume = *resume
	study := experiments.NewRunner(cfg)
	settings := pipeline.SimSettings{Workers: *workers}
	if *quick {
		settings = pipeline.SimSettings{RunLength: 4000, Replications: 8, Workers: *workers}
	}
	render := experiments.FormatTable
	if *csv {
		render = experiments.FormatCSV
	}

	want := func(name string) bool { return *experiment == "all" || *experiment == name }

	if want("sect3") {
		fmt.Println("== Sect. 3.1: noninterference ==")
		simplified, err := study.RPCNoninterferenceSimplified()
		if err != nil {
			return err
		}
		fmt.Printf("simplified rpc (%d states): transparent=%t\n", simplified.States, simplified.Transparent)
		if !simplified.Transparent {
			fmt.Println("distinguishing formula:")
			fmt.Println("  " + simplified.Formula)
		}
		revised, err := study.RPCNoninterferenceRevised()
		if err != nil {
			return err
		}
		fmt.Printf("revised rpc (%d states): transparent=%t\n\n", revised.States, revised.Transparent)
	}

	if want("fig3markov") {
		fmt.Println("== Fig. 3 (left): Markovian rpc comparison ==")
		pts, err := study.Fig3Markov(nil)
		if err != nil {
			return err
		}
		h, rows := experiments.Fig3Rows(pts)
		fmt.Println(render(h, rows))
	}

	if want("fig3general") {
		fmt.Println("== Fig. 3 (right): general rpc comparison (deterministic timings) ==")
		pts, err := study.Fig3General(nil, settings)
		if err != nil {
			return err
		}
		h, rows := experiments.Fig3Rows(pts)
		fmt.Println(render(h, rows))
	}

	if want("fig5") {
		fmt.Println("== Fig. 5: validation of the general model (exponential durations) ==")
		pts, err := study.Fig5Validation(nil, settings)
		if err != nil {
			return err
		}
		h, rows := experiments.Fig5Rows(pts)
		fmt.Println(render(h, rows))
	}

	if want("policies") {
		fmt.Println("== Extension: DPM policy ablation (Markovian, timeout/period 5 ms) ==")
		pts, err := study.PolicyComparison(5)
		if err != nil {
			return err
		}
		h, rows := experiments.PolicyRows(pts)
		fmt.Println(render(h, rows))
	}

	if want("battery") {
		fmt.Println("== Extension: battery lifetime (transient analysis, budget 5000) ==")
		pts, err := study.BatteryLifetime(5000, 5, 20)
		if err != nil {
			return err
		}
		h, rows := experiments.BatteryRows(pts)
		fmt.Println(render(h, rows))
	}

	if want("fig7") {
		fmt.Println("== Fig. 7: energy/waiting-time trade-off ==")
		curves, err := study.Fig7Tradeoff(nil, settings)
		if err != nil {
			return err
		}
		h, rows := experiments.TradeoffRows(curves, "waiting_time", "energy_per_request")
		fmt.Println(render(h, rows))
		if dom := experiments.ParetoDominated(curves.General); len(dom) > 0 {
			fmt.Printf("Pareto-dominated points on the general curve (timeouts near the idle period): %d\n", len(dom))
		}
	}
	return nil
}

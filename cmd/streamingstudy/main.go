// Command streamingstudy regenerates the streaming results of the paper:
// the Sect. 3.2 noninterference verdict, the Markovian comparison of
// Fig. 4, the general-model comparison of Fig. 6, and the energy/miss
// trade-off of Fig. 8.
//
// Usage:
//
//	streamingstudy [-experiment all|sect3|fig4|fig6|fig8] [-csv] [-quick]
//	               [-compose full|minimize] [-workers N]
//	               [-timeout D] [-checkpoint DIR] [-resume]
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
		fmt.Fprintln(os.Stderr, "streamingstudy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("streamingstudy", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "which experiment to run (all, sect3, fig4, fig6, fig8, transient)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	quick := fs.Bool("quick", false, "small buffers and shorter simulations (smoke run)")
	composeMode := fs.String("compose", "full",
		"composition strategy for the Markovian analyses: full generates the\n"+
			"plain parallel product, minimize lumps each component before\n"+
			"composition and folds vanishing states during generation (measure\n"+
			"values are identical either way)")
	workers := fs.Int("workers", runtime.NumCPU(),
		"concurrent sweep chunks, simulation replications, and experiment\n"+
			"points (results are identical at any value)")
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
		Workers: *workers,
		Store:   pipeline.NewMemoryStore(),
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
	scale := experiments.Full
	var settings pipeline.SimSettings
	if *quick {
		scale = experiments.Quick
		settings = pipeline.SimSettings{RunLength: 60000, Warmup: 20000, Replications: 5}
	}
	render := experiments.FormatTable
	if *csv {
		render = experiments.FormatCSV
	}
	want := func(name string) bool { return *experiment == "all" || *experiment == name }

	if want("sect3") {
		fmt.Println("== Sect. 3.2: noninterference ==")
		res, err := study.StreamingNoninterference(scale)
		if err != nil {
			return err
		}
		fmt.Printf("streaming (%d states): transparent=%t\n\n", res.States, res.Transparent)
		if !res.Transparent {
			fmt.Println("distinguishing formula:")
			fmt.Println("  " + res.Formula)
		}
	}

	if want("fig4") {
		fmt.Println("== Fig. 4: Markovian streaming comparison ==")
		pts, err := study.Fig4Markov(nil, scale)
		if err != nil {
			return err
		}
		h, rows := experiments.Fig4Rows(pts)
		fmt.Println(render(h, rows))
	}

	if want("fig6") {
		fmt.Println("== Fig. 6: general streaming comparison (CBR video, deadlines) ==")
		pts, err := study.Fig6General(nil, scale, settings)
		if err != nil {
			return err
		}
		h, rows := experiments.Fig4Rows(pts)
		fmt.Println(render(h, rows))
	}

	if want("transient") {
		fmt.Println("== Extension: start-up transient (P[buffer empty](t), awake period 100 ms) ==")
		pts, err := study.StreamingStartupTransient(nil, 100, scale)
		if err != nil {
			return err
		}
		h, rows := experiments.TransientRows(pts)
		fmt.Println(render(h, rows))
	}

	if want("fig8") {
		fmt.Println("== Fig. 8: energy/miss trade-off ==")
		curves, err := study.Fig8Tradeoff(nil, scale, settings)
		if err != nil {
			return err
		}
		h, rows := experiments.TradeoffRows(curves, "miss_rate", "energy_per_frame")
		fmt.Println(render(h, rows))
	}
	return nil
}

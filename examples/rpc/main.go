// The complete rpc walkthrough of the paper: phase 1 catches the design
// flaw of the simplified model and produces the diagnostic formula of
// Sect. 3.1; the revised model passes; phase 2 compares the Markovian
// models with and without DPM across shutdown timeouts (Fig. 3, left);
// the general model is validated against the Markovian one (Fig. 5) and
// then simulated with its realistic deterministic/Gaussian durations
// (Fig. 3, right), exposing the bimodal behaviour and the
// counterproductive region near the mean idle time.
package main

import (
	"fmt"
	"log"

	"repro/internal/aemilia"
	"repro/internal/experiments"
	"repro/internal/lts"
	"repro/internal/models"
	"repro/internal/noninterference"
	"repro/internal/pipeline"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Phase 1: functional transparency -----------------------------
	fmt.Println("Phase 1 — noninterference analysis")
	spec := noninterference.Spec{
		High: lts.LabelMatcherByNames(models.RPCHighLabels()...),
		Low:  lts.LabelMatcherByInstance("C"),
	}
	simplified, err := models.BuildRPCSimplified()
	if err != nil {
		return err
	}
	rep1, err := pipeline.NewSession(pipeline.Spec{
		Build: func() (*aemilia.ArchiType, error) { return simplified, nil },
	}, pipeline.Config{}).Phase1(spec)
	if err != nil {
		return err
	}
	fmt.Printf("  simplified model: transparent=%t\n", rep1.Result.Transparent)
	if !rep1.Result.Transparent {
		fmt.Println("  the checker explains why (the client can wait forever):")
		fmt.Println("    " + rep1.Result.FormulaText)
	}

	p := models.DefaultRPCParams()
	p.Mode = models.Functional
	revised, err := models.BuildRPCRevised(p)
	if err != nil {
		return err
	}
	rep1b, err := pipeline.NewSession(pipeline.Spec{
		Build: func() (*aemilia.ArchiType, error) { return revised, nil },
	}, pipeline.Config{}).Phase1(spec)
	if err != nil {
		return err
	}
	fmt.Printf("  revised model (timeouts + busy/idle notices): transparent=%t\n\n",
		rep1b.Result.Transparent)

	// --- Phase 2: Markovian comparison (Fig. 3 left) -------------------
	// One runner drives every sweep below: its Config is the injected
	// environment (workers, lane width, stores), here the defaults.
	study := experiments.NewRunner(pipeline.Config{})
	fmt.Println("Phase 2 — Markovian comparison (Fig. 3, left)")
	pts, err := study.Fig3Markov([]float64{0, 1, 5, 10, 25})
	if err != nil {
		return err
	}
	h, rows := experiments.Fig3Rows(pts)
	fmt.Println(experiments.FormatTable(h, rows))

	// --- Phase 3a: validation (Fig. 5) ---------------------------------
	fmt.Println("Phase 3 — validating the general model (Fig. 5)")
	val, err := study.Fig5Validation([]float64{5, 15},
		pipeline.SimSettings{RunLength: 10000, Replications: 15})
	if err != nil {
		return err
	}
	h, rows = experiments.Fig5Rows(val)
	fmt.Println(experiments.FormatTable(h, rows))

	// --- Phase 3b: the realistic general model (Fig. 3 right) ----------
	fmt.Println("Phase 3 — general model with deterministic timings (Fig. 3, right)")
	gpts, err := study.Fig3General([]float64{0, 2, 5, 8, 10, 12, 15, 25},
		pipeline.SimSettings{RunLength: 8000, Replications: 10})
	if err != nil {
		return err
	}
	h, rows = experiments.Fig3Rows(gpts)
	fmt.Println(experiments.FormatTable(h, rows))
	fmt.Println("note the knee near the mean idle period (~11.3 ms): below it the")
	fmt.Println("penalty is flat and energy grows with the timeout; just below the")
	fmt.Println("knee the DPM is counterproductive; above it the DPM has no effect.")
	return nil
}

// Command streamingstudy regenerates the streaming results of the paper:
// the Sect. 3.2 noninterference verdict, the Markovian comparison of
// Fig. 4, the general-model comparison of Fig. 6, the start-up transient
// extension, and the energy/miss trade-off of Fig. 8. The experiments are
// the streaming entries of the experiments catalog
// (experiments.StreamingStudy), run by the shared study command line.
// Every Markovian analysis folds vanishing states during generation,
// which preserves every measure; the simulations run on the unfolded
// model.
//
// Usage:
//
//	streamingstudy [-experiment all|sect3|fig4|fig6|transient|fig8] [-csv] [-quick]
//	               [-workers N] [-timeout D] [-checkpoint DIR] [-resume]
package main

import (
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := experiments.RunStudy(experiments.StreamingStudy, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "streamingstudy:", err)
		os.Exit(1)
	}
}

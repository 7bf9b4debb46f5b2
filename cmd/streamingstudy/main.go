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
	"os"

	"repro/internal/experiments"
)

func main() { os.Exit(status(os.Args[1:])) }

// status runs the command line on args and returns the process status.
func status(args []string) int {
	return experiments.StreamingStudy.ExitCode(experiments.RunStudy(experiments.StreamingStudy, args, os.Stdout))
}

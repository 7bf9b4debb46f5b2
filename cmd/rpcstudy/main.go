// Command rpcstudy regenerates the rpc results of the paper: the Sect. 3.1
// noninterference verdicts with the diagnostic formula, the Markovian
// comparison of Fig. 3 (left), the general-model comparison of Fig. 3
// (right), the cross-validation of Fig. 5, the DPM policy and battery
// lifetime extensions, and the energy/waiting-time trade-off of Fig. 7.
// The experiments are the rpc entries of the experiments catalog
// (experiments.RPCStudy), run by the shared study command line. Every
// Markovian analysis folds vanishing states during generation, which
// preserves every measure; the simulations run on the unfolded model.
//
// Usage:
//
//	rpcstudy [-experiment all|sect3|fig3markov|fig3general|fig5|policies|battery|fig7]
//	         [-csv] [-quick] [-workers N]
//	         [-timeout D] [-checkpoint DIR] [-resume]
package main

import (
	"os"

	"repro/internal/experiments"
)

func main() { os.Exit(status(os.Args[1:])) }

// status runs the command line on args and returns the process status.
func status(args []string) int {
	return experiments.RPCStudy.ExitCode(experiments.RunStudy(experiments.RPCStudy, args, os.Stdout))
}

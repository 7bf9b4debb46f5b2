// The streaming walkthrough of the paper: phase 1 checks that the PSP
// power manager is transparent to the video client (Sect. 3.2); phase 2
// sweeps the awake period on the Markovian model (Fig. 4); phase 3
// simulates the general model with constant bit-rate video and real-time
// frame deadlines (Fig. 6), and prints the energy/miss trade-off
// underlying Fig. 8 — including the practical conclusion that a ~100 ms
// awake period saves most of the NIC energy at no perceptible cost.
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/pipeline"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// One runner drives the whole walkthrough: its Config is the injected
	// environment (workers, lane width, stores), here the defaults.
	study := experiments.NewRunner(pipeline.Config{})
	fmt.Println("Phase 1 — noninterference analysis (Sect. 3.2)")
	res, err := study.StreamingNoninterference(experiments.Quick)
	if err != nil {
		return err
	}
	fmt.Printf("  streaming model (%d states): transparent=%t\n\n", res.States, res.Transparent)

	fmt.Println("Phase 2 — Markovian comparison (Fig. 4)")
	pts, err := study.Fig4Markov([]float64{10, 50, 100, 200, 400, 800}, experiments.Full)
	if err != nil {
		return err
	}
	h, rows := experiments.Fig4Rows(pts)
	fmt.Println(experiments.FormatTable(h, rows))

	fmt.Println("Phase 3 — general model: CBR video, deterministic PSP, deadlines (Fig. 6)")
	settings := pipeline.SimSettings{RunLength: 120000, Warmup: 40000, Replications: 10}
	gpts, err := study.Fig6General([]float64{25, 50, 100, 200, 400, 800},
		experiments.Full, settings)
	if err != nil {
		return err
	}
	h, rows = experiments.Fig4Rows(gpts)
	fmt.Println(experiments.FormatTable(h, rows))

	// The practical conclusion of the paper.
	for _, pt := range gpts {
		if pt.Period == 100 {
			saving := 1 - pt.WithDPM.EnergyPerFrame/pt.NoDPM.EnergyPerFrame
			fmt.Printf("at a 100 ms awake period the NIC saves %.0f%% energy while the\n", saving*100)
			fmt.Printf("quality stays at %.3f (no-DPM: %.3f): the MAC-level DPM is\n",
				pt.WithDPM.Quality, pt.NoDPM.Quality)
			fmt.Println("transparent to the streaming client, as the paper concludes.")
		}
	}
	return nil
}

// Quickstart: model a tiny producer/buffer/consumer system with the
// architectural description API, generate its state space, solve the
// underlying CTMC for two measures, and cross-check the solution with the
// discrete-event simulator.
package main

import (
	"fmt"
	"log"

	"repro/internal/aemilia"
	"repro/internal/expr"
	"repro/internal/measure"
	"repro/internal/pipeline"
	"repro/internal/rates"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const capacity = 5

	// A bounded buffer with an integer fill-level parameter and guarded
	// branches, plus a passive monitor used by a state reward.
	buffer := aemilia.NewElemType("Buffer_Type",
		[]string{"put"}, []string{"get", "monitor_nonempty"},
		aemilia.NewBehavior("Buffer", []aemilia.Param{aemilia.IntParam("n")},
			aemilia.Ch(
				aemilia.When(expr.Bin(expr.OpLt, expr.Ref("n"), expr.Int(capacity)),
					aemilia.Pre("put", rates.PassiveRate(),
						aemilia.Invoke("Buffer", expr.Bin(expr.OpAdd, expr.Ref("n"), expr.Int(1))))),
				aemilia.When(expr.Bin(expr.OpGt, expr.Ref("n"), expr.Int(0)),
					aemilia.Pre("get", rates.PassiveRate(),
						aemilia.Invoke("Buffer", expr.Bin(expr.OpSub, expr.Ref("n"), expr.Int(1))))),
				aemilia.When(expr.Bin(expr.OpGt, expr.Ref("n"), expr.Int(0)),
					aemilia.Pre("monitor_nonempty", rates.PassiveRate(),
						aemilia.Invoke("Buffer", expr.Ref("n")))),
			)))
	producer := aemilia.NewElemType("Producer_Type", nil, []string{"put"},
		aemilia.NewBehavior("Produce", nil,
			aemilia.Pre("put", rates.ExpRate(2), aemilia.Invoke("Produce"))))
	consumer := aemilia.NewElemType("Consumer_Type", []string{"get"}, nil,
		aemilia.NewBehavior("Consume", nil,
			aemilia.Pre("get", rates.ExpRate(3), aemilia.Invoke("Consume"))))

	arch := aemilia.NewArchiType("Quickstart",
		[]*aemilia.ElemType{buffer, producer, consumer},
		[]*aemilia.Instance{
			aemilia.NewInstance("B", "Buffer_Type", expr.Int(0)),
			aemilia.NewInstance("P", "Producer_Type"),
			aemilia.NewInstance("C", "Consumer_Type"),
		},
		[]aemilia.Attachment{
			aemilia.Attach("P", "put", "B", "put"),
			aemilia.Attach("B", "get", "C", "get"),
		})

	// The textual form round-trips through the parser.
	fmt.Println(aemilia.Format(arch))

	measures := []measure.Measure{
		{Name: "utilization", Clauses: []measure.Clause{
			{Instance: "B", Action: "monitor_nonempty", Kind: measure.StateReward, Value: 1},
		}},
		{Name: "throughput", Clauses: []measure.Clause{
			{Instance: "C", Action: "get", Kind: measure.TransReward, Value: 1},
		}},
	}

	// One session stages the model for every phase below: it is elaborated
	// once and shared by the exact solution and the simulation.
	s := pipeline.NewSession(pipeline.Spec{
		Arch:     arch,
		Measures: measures,
	}, pipeline.Config{})

	// Exact Markovian analysis.
	exact, err := s.Phase2()
	if err != nil {
		return err
	}
	fmt.Printf("state space: %d states\n", exact.States)
	fmt.Printf("exact   utilization=%.6f throughput=%.6f\n",
		exact.Values["utilization"], exact.Values["throughput"])

	// Simulation of the same model (exponential durations).
	sim, err := s.Phase3(nil, pipeline.SimSettings{
		RunLength: 5000, Warmup: 100, Replications: 10, Seed: 1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("simulated utilization=%v throughput=%v\n",
		sim.Estimates["utilization"], sim.Estimates["throughput"])

	val := pipeline.Validate(exact, sim, 0.05)
	fmt.Printf("cross-validation consistent: %t\n", val.Consistent)
	return nil
}

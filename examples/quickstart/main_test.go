package main

// Example runs the quickstart end to end: the printed description, the
// exact solution, the simulation and the cross-validation verdict. The
// simulated line depends on the simulator's draw stream, so a change to
// that stream (ROADMAP item 19) re-records it.
func Example() {
	if err := run(); err != nil {
		panic(err)
	}
	// Output:
	// ARCHI_TYPE Quickstart(void)
	//
	// ARCHI_ELEM_TYPES
	//
	//   ELEM_TYPE Buffer_Type(void)
	//     BEHAVIOR
	//       Buffer(integer n; void) =
	//         choice {
	//           cond((n < 5)) -> <put, passive> . Buffer((n + 1)),
	//           cond((n > 0)) -> <get, passive> . Buffer((n - 1)),
	//           cond((n > 0)) -> <monitor_nonempty, passive> . Buffer(n)
	//         }
	//     INPUT_INTERACTIONS UNI put
	//     OUTPUT_INTERACTIONS UNI get; monitor_nonempty
	//
	//   ELEM_TYPE Producer_Type(void)
	//     BEHAVIOR
	//       Produce(void; void) =
	//         <put, exp(2)> . Produce(void)
	//     INPUT_INTERACTIONS void
	//     OUTPUT_INTERACTIONS UNI put
	//
	//   ELEM_TYPE Consumer_Type(void)
	//     BEHAVIOR
	//       Consume(void; void) =
	//         <get, exp(3)> . Consume(void)
	//     INPUT_INTERACTIONS UNI get
	//     OUTPUT_INTERACTIONS void
	//
	// ARCHI_TOPOLOGY
	//
	//   ARCHI_ELEM_INSTANCES
	//     B : Buffer_Type(0);
	//     P : Producer_Type(void);
	//     C : Consumer_Type(void)
	//
	//   ARCHI_ATTACHMENTS
	//     FROM P.put TO B.put;
	//     FROM B.get TO C.get
	//
	// END
	//
	// state space: 6 states
	// exact   utilization=0.634586 throughput=1.903759
	// simulated utilization=0.633755 ± 0.00673 (90%) throughput=1.90046 ± 0.0129 (90%)
	// cross-validation consistent: true
}

package main

// Example runs both systems of the walkthrough: the leaky one fails the
// check with the formula that witnesses its covert channel, and the
// sealed one passes.
func Example() {
	if err := run(); err != nil {
		panic(err)
	}
	// Output:
	// leaky system: noninterference=false
	// covert channel witnessed by:
	//   EXISTS_WEAK_TRANS(LABEL(L.use#R.use); REACHED_STATE_SAT(EXISTS_WEAK_TRANS(LABEL(R.refuse#L.refuse); REACHED_STATE_SAT(TRUE))))
	// sealed system: noninterference=true
}

package aemilia

import "repro/internal/rates"

// Untimed erases the timing of a in place, deriving the functional
// flavour of a Markovian description (the first phase of the paper's
// incremental methodology). Every annotation becomes untimed except a
// passive one on an output interaction, which stays passive: those are
// the observation ports (monitor_*, status_*) that the reward measures
// read, and erasing them would turn a probe into an ordinary untimed
// action. Call it before Validate.
func Untimed(a *ArchiType) {
	for _, et := range a.ElemTypes {
		for _, b := range et.Behaviors {
			untime(b.Body, et)
		}
	}
}

// untime erases the annotations of one process term (see Untimed).
func untime(p Process, et *ElemType) {
	switch x := p.(type) {
	case *Prefix:
		if _, out := et.OutputPort(x.Act.Name); x.Act.Rate.Kind != rates.Passive || !out {
			x.Act.Rate = rates.UntimedRate()
		}
		untime(x.Cont, et)
	case *Choice:
		for _, br := range x.Branches {
			untime(br, et)
		}
	case *Guarded:
		untime(x.Body, et)
	}
}

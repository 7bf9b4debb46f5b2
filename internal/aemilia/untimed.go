package aemilia

import (
	"slices"

	"repro/internal/rates"
)

// Untimed erases the timing of a in place, deriving the functional
// flavour of a Markovian description (the first phase of the paper's
// incremental methodology). Every annotation becomes untimed except a
// passive one on an output interaction, which stays passive: those are
// the observation ports (monitor_*, status_*) that the reward measures
// read, and erasing them would turn a probe into an ordinary untimed
// action. Call it before Validate.
func Untimed(a *ArchiType) {
	for _, et := range a.ElemTypes {
		outs := et.outputPorts()
		for _, b := range et.Behaviors {
			untime(b.Body, outs)
		}
	}
}

// untime erases the annotations of one process term (see Untimed).
func untime(p Process, outs []Port) {
	switch x := p.(type) {
	case *Prefix:
		out := slices.ContainsFunc(outs, func(o Port) bool { return o.Name == x.Act.Name })
		if x.Act.Rate.Kind != rates.Passive || !out {
			x.Act.Rate = rates.UntimedRate()
		}
		untime(x.Cont, outs)
	case *Choice:
		for _, br := range x.Branches {
			untime(br, outs)
		}
	case *Guarded:
		untime(x.Body, outs)
	}
}

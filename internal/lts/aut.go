package lts

import (
	"fmt"
	"io"
)

// WriteAUT renders the LTS in the Aldebaran (.aut) format used by the
// CADP toolbox and supported by TwoTowers for interchange:
//
//	des (initial, transitions, states)
//	(src, "label", dst)
//	...
//
// Rates are appended to labels as "label {rate}" when present, so rated
// systems round-trip losslessly at the functional level (rates survive as
// label decorations); the tests read the output back with ReadAUT in
// readaut_test.go.
func WriteAUT(w io.Writer, l *LTS) error {
	if _, err := fmt.Fprintf(w, "des (%d, %d, %d)\n",
		l.Initial, l.NumTransitions(), l.NumStates); err != nil {
		return err
	}
	for s := 0; s < l.NumStates; s++ {
		sp := l.Out(s)
		for k := 0; k < sp.Len(); k++ {
			label := l.LabelName(int(sp.Label[k]))
			if r := sp.Rate(k); r.Kind != 0 && r.String() != "_" {
				label += " {" + r.String() + "}"
			}
			if _, err := fmt.Fprintf(w, "(%d, %q, %d)\n", s, label, sp.Dst[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

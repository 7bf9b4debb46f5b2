package lts

import (
	"fmt"
	"io"
)

// WriteDOT renders the LTS in Graphviz DOT syntax for visual inspection.
// Rates are appended to edge labels when present. All labels are escaped
// exactly once, by %q.
func WriteDOT(w io.Writer, l *LTS, name string) error {
	if name == "" {
		name = "lts"
	}
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=LR;\n", name); err != nil {
		return err
	}
	for s := 0; s < l.NumStates; s++ {
		label := l.StateDesc(s)
		shape := "circle"
		if s == l.Initial {
			shape = "doublecircle"
		}
		if _, err := fmt.Fprintf(w, "  n%d [label=%q, shape=%s];\n", s, label, shape); err != nil {
			return err
		}
	}
	for s := 0; s < l.NumStates; s++ {
		sp := l.Out(s)
		for k := 0; k < sp.Len(); k++ {
			lbl := l.LabelName(int(sp.Label[k]))
			if r := sp.Rate(k); r.Kind != 0 && r.String() != "_" {
				lbl += ", " + r.String()
			}
			if _, err := fmt.Fprintf(w, "  n%d -> n%d [label=%q];\n", s, sp.Dst[k], lbl); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

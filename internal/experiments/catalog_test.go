package experiments

import (
	"io"
	"testing"
)

// TestRunStudyRunsEachEntryOnce counts the runs of every catalog entry in
// -quick invocations of RunStudy: all runs each entry once, the
// simulations that the trade-off figures consume included, and a
// consumer selected alone runs itself and each of its inputs once.
func TestRunStudyRunsEachEntryOnce(t *testing.T) {
	for _, s := range studies {
		want := map[string]map[string]int{"all": {}}
		for _, e := range s.entries {
			want["all"][e.name] = 1
			if len(e.inputs) > 0 {
				want[e.name] = map[string]int{e.name: 1}
				for _, in := range e.inputs {
					want[e.name][in] = 1
				}
			}
		}
		for experiment, counts := range want {
			got := make(map[string]int)
			counted := *s
			counted.entries = nil
			for _, e := range s.entries {
				c := *e
				c.run = func(r *Runner, cu cut, in []any, rend render) (any, string, error) {
					got[e.name]++
					return e.run(r, cu, in, rend)
				}
				counted.entries = append(counted.entries, &c)
			}
			if err := RunStudy(&counted, []string{"-quick", "-experiment", experiment}, io.Discard); err != nil {
				t.Fatalf("%s -experiment %s: %v", s.name, experiment, err)
			}
			for _, e := range s.entries {
				if got[e.name] != counts[e.name] {
					t.Errorf("%s -experiment %s ran %s %d times, want %d",
						s.name, experiment, e.name, got[e.name], counts[e.name])
				}
			}
		}
	}
}

package hml

import "testing"

// FuzzHMLParse checks Parse, the reader behind dpmassess mc -formula, on
// arbitrary bytes: it never panics, and the Format text of whatever it
// accepts is a fixed point of Format∘Parse. The fixed point is the
// property, not Parse(Format(f)) == f: a one-conjunct AND formats as its
// conjunct, so AND(TRUE) comes back as TRUE.
func FuzzHMLParse(f *testing.F) {
	seeds := []string{
		rpcFormula,
		spacedFormula,
		"TRUE",
		"AND(TRUE)",
		"AND(TRUE; NOT(TRUE))",
		// the covert channel of examples/noninterference's leaky system
		"EXISTS_WEAK_TRANS(LABEL(L.use#R.use); REACHED_STATE_SAT(" +
			"EXISTS_WEAK_TRANS(LABEL(R.refuse#L.refuse); REACHED_STATE_SAT(TRUE))))",
	}
	seeds = append(seeds, malformedFormulas...)
	for _, g := range roundTripFormulas {
		seeds = append(seeds, Format(g))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(g)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its Format %q fails: %v", src, text, err)
		}
		if got := Format(again); got != text {
			t.Fatalf("Format(Parse(%q)) = %q, not a fixed point", text, got)
		}
	})
}

// Multicast: demonstrates the AND (broadcast) and OR (alternative)
// interaction multiplicities — a video source broadcasting frames to a
// growing set of subscribers, plus a shared helper serving them one at a
// time. The Markovian analysis shows how the broadcast rate degrades as
// the slowest subscriber gates the group.
package main

import (
	"fmt"
	"log"

	"repro/internal/aemilia"
	"repro/internal/measure"
	"repro/internal/pipeline"
	"repro/internal/rates"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// buildMulticast returns a source broadcasting to n subscribers; each
// subscriber must also fetch a licence from a shared OR server before it
// can digest the next frame.
func buildMulticast(n int) (*aemilia.ArchiType, error) {
	source := aemilia.NewElemTypePorts("Source_Type",
		nil, []aemilia.Port{aemilia.AndPort("publish")},
		aemilia.NewBehavior("Produce", nil,
			aemilia.Pre("encode", rates.ExpRate(2),
				aemilia.Pre("publish", rates.Inf(1, 1), aemilia.Invoke("Produce")))))
	subscriber := aemilia.NewElemTypePorts("Sub_Type",
		[]aemilia.Port{aemilia.UniPort("hear"), aemilia.UniPort("licence")}, nil,
		aemilia.NewBehavior("Idle", nil,
			aemilia.Pre("hear", rates.PassiveRate(), aemilia.Invoke("Fetching"))),
		aemilia.NewBehavior("Fetching", nil,
			aemilia.Pre("licence", rates.PassiveRate(), aemilia.Invoke("Digesting"))),
		aemilia.NewBehavior("Digesting", nil,
			aemilia.Pre("digest", rates.ExpRate(4), aemilia.Invoke("Idle"))))
	licenser := aemilia.NewElemTypePorts("Lic_Type",
		nil, []aemilia.Port{aemilia.OrPort("grant")},
		aemilia.NewBehavior("L", nil,
			aemilia.Pre("grant", rates.ExpRate(8), aemilia.Invoke("L"))))

	elems := []*aemilia.ElemType{source, subscriber, licenser}
	insts := []*aemilia.Instance{
		aemilia.NewInstance("SRC", "Source_Type"),
		aemilia.NewInstance("LIC", "Lic_Type"),
	}
	var atts []aemilia.Attachment
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("SUB%d", i+1)
		insts = append(insts, aemilia.NewInstance(name, "Sub_Type"))
		atts = append(atts,
			aemilia.Attach("SRC", "publish", name, "hear"),
			aemilia.Attach("LIC", "grant", name, "licence"),
		)
	}
	a := aemilia.NewArchiType("Multicast", elems, insts, atts)
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

func run() error {
	fmt.Println("subscribers  broadcast_rate  states")
	for n := 1; n <= 4; n++ {
		arch, err := buildMulticast(n)
		if err != nil {
			return err
		}
		measures := []measure.Measure{
			{Name: "broadcasts", Clauses: []measure.Clause{
				{Instance: "SRC", Action: "publish", Kind: measure.TransReward, Value: 1},
			}},
		}
		rep, err := pipeline.NewSession(pipeline.Spec{
			Build:    func() (*aemilia.ArchiType, error) { return arch, nil },
			Measures: measures,
		}, pipeline.Config{}).Phase2()
		if err != nil {
			return err
		}
		fmt.Printf("%11d  %14.5f  %6d\n", n, rep.Values["broadcasts"], rep.States)
	}
	fmt.Println()
	fmt.Println("every subscriber must hear each frame (AND broadcast), so the")
	fmt.Println("group is gated by its slowest member: the broadcast rate falls")
	fmt.Println("as subscribers are added, while the OR licence server serializes")
	fmt.Println("their fetches.")
	// Show the textual form of the 2-subscriber system: the multiplicity
	// declarations round-trip through the parser.
	arch, err := buildMulticast(2)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Println(aemilia.Format(arch))
	return nil
}

// A classical security-flavoured noninterference example, showing that
// the machinery behind the DPM transparency check is the standard
// information-flow analysis: a shared service leaks one bit from a high
// user to a low user through contention, and the checker's distinguishing
// formula pinpoints the covert channel; serializing access through a
// per-user front-end removes it.
package main

import (
	"fmt"
	"log"

	"repro/internal/aemilia"
	"repro/internal/lts"
	"repro/internal/noninterference"
	"repro/internal/pipeline"
	"repro/internal/rates"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// leakySystem: the high user can lock the shared resource; while locked,
// the low user's requests are refused — an observable effect of high
// activity (a 1-bit covert channel).
func leakySystem() (*aemilia.ArchiType, error) {
	u := rates.UntimedRate()
	resource := aemilia.NewElemType("Resource_Type",
		[]string{"lock", "unlock", "use"}, []string{"grant", "refuse"},
		aemilia.NewBehavior("Free", nil, aemilia.Ch(
			aemilia.Pre("use", u, aemilia.Pre("grant", u, aemilia.Invoke("Free"))),
			aemilia.Pre("lock", u, aemilia.Invoke("Locked")),
		)),
		aemilia.NewBehavior("Locked", nil, aemilia.Ch(
			aemilia.Pre("use", u, aemilia.Pre("refuse", u, aemilia.Invoke("Locked"))),
			aemilia.Pre("unlock", u, aemilia.Invoke("Free")),
		)),
	)
	lowUser := aemilia.NewElemType("Low_Type",
		[]string{"grant", "refuse"}, []string{"use"},
		aemilia.NewBehavior("L", nil,
			aemilia.Pre("use", u, aemilia.Ch(
				aemilia.Pre("grant", u, aemilia.Invoke("L")),
				aemilia.Pre("refuse", u, aemilia.Invoke("L")),
			))),
	)
	highUser := aemilia.NewElemType("High_Type", nil, []string{"lock", "unlock"},
		aemilia.NewBehavior("H", nil,
			aemilia.Pre("lock", u, aemilia.Pre("unlock", u, aemilia.Invoke("H")))),
	)
	a := aemilia.NewArchiType("Leaky",
		[]*aemilia.ElemType{resource, lowUser, highUser},
		[]*aemilia.Instance{
			aemilia.NewInstance("R", "Resource_Type"),
			aemilia.NewInstance("L", "Low_Type"),
			aemilia.NewInstance("H", "High_Type"),
		},
		[]aemilia.Attachment{
			aemilia.Attach("L", "use", "R", "use"),
			aemilia.Attach("R", "grant", "L", "grant"),
			aemilia.Attach("R", "refuse", "L", "refuse"),
			aemilia.Attach("H", "lock", "R", "lock"),
			aemilia.Attach("H", "unlock", "R", "unlock"),
		})
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// sealedSystem: the resource serves the low user identically whether or
// not the high user holds the lock — the lock only matters to an internal
// audit action, so nothing observable leaks.
func sealedSystem() (*aemilia.ArchiType, error) {
	u := rates.UntimedRate()
	resource := aemilia.NewElemType("Resource_Type",
		[]string{"lock", "unlock", "use"}, []string{"grant"},
		aemilia.NewBehavior("Free", nil, aemilia.Ch(
			aemilia.Pre("use", u, aemilia.Pre("grant", u, aemilia.Invoke("Free"))),
			aemilia.Pre("lock", u, aemilia.Invoke("Locked")),
		)),
		aemilia.NewBehavior("Locked", nil, aemilia.Ch(
			aemilia.Pre("use", u, aemilia.Pre("grant", u, aemilia.Invoke("Locked"))),
			aemilia.Pre("audit", u, aemilia.Invoke("Locked")),
			aemilia.Pre("unlock", u, aemilia.Invoke("Free")),
		)),
	)
	lowUser := aemilia.NewElemType("Low_Type",
		[]string{"grant"}, []string{"use"},
		aemilia.NewBehavior("L", nil,
			aemilia.Pre("use", u, aemilia.Pre("grant", u, aemilia.Invoke("L")))),
	)
	highUser := aemilia.NewElemType("High_Type", nil, []string{"lock", "unlock"},
		aemilia.NewBehavior("H", nil,
			aemilia.Pre("lock", u, aemilia.Pre("unlock", u, aemilia.Invoke("H")))),
	)
	a := aemilia.NewArchiType("Sealed",
		[]*aemilia.ElemType{resource, lowUser, highUser},
		[]*aemilia.Instance{
			aemilia.NewInstance("R", "Resource_Type"),
			aemilia.NewInstance("L", "Low_Type"),
			aemilia.NewInstance("H", "High_Type"),
		},
		[]aemilia.Attachment{
			aemilia.Attach("L", "use", "R", "use"),
			aemilia.Attach("R", "grant", "L", "grant"),
			aemilia.Attach("H", "lock", "R", "lock"),
			aemilia.Attach("H", "unlock", "R", "unlock"),
		})
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

func run() error {
	spec := noninterference.Spec{
		High: lts.LabelMatcherByInstance("H"),
		Low:  lts.LabelMatcherByInstance("L"),
	}

	leaky, err := leakySystem()
	if err != nil {
		return err
	}
	rep, err := pipeline.NewSession(pipeline.Spec{
		Build: func() (*aemilia.ArchiType, error) { return leaky, nil },
	}, pipeline.Config{}).Phase1(spec)
	if err != nil {
		return err
	}
	fmt.Printf("leaky system: noninterference=%t\n", rep.Result.Transparent)
	if !rep.Result.Transparent {
		fmt.Println("covert channel witnessed by:")
		fmt.Println("  " + rep.Result.FormulaText)
	}

	sealed, err := sealedSystem()
	if err != nil {
		return err
	}
	rep, err = pipeline.NewSession(pipeline.Spec{
		Build: func() (*aemilia.ArchiType, error) { return sealed, nil },
	}, pipeline.Config{}).Phase1(spec)
	if err != nil {
		return err
	}
	fmt.Printf("sealed system: noninterference=%t\n", rep.Result.Transparent)
	return nil
}

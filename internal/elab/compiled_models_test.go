package elab_test

import (
	"testing"

	"repro/internal/aemilia"
	"repro/internal/elab"
	"repro/internal/models"
)

// TestCompiledMatchesSuccessorsOnPaperModels runs the differential oracle
// on the rpc and streaming models in both modes and on the models the
// Fig. 4 and 12×12 solve paths generate from.
func TestCompiledMatchesSuccessorsOnPaperModels(t *testing.T) {
	elaborate := func(a *aemilia.ArchiType, err error) *elab.Model {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		m, err := elab.Elaborate(a)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	rpc := models.DefaultRPCParams()
	rpcFunctional := rpc
	rpcFunctional.Mode = models.Functional
	st := models.DefaultStreamingParams()
	stFunctional := st
	stFunctional.Mode = models.Functional
	fig4 := st
	fig4.ParametricPeriod = true
	stress := fig4
	stress.APCapacity, stress.ClientCapacity = 12, 12

	cases := []struct {
		name string
		m    *elab.Model
	}{
		{"rpc-simplified", elaborate(models.BuildRPCSimplified())},
		{"rpc/markov", elaborate(models.BuildRPCRevised(rpc))},
		{"rpc/functional", elaborate(models.BuildRPCRevised(rpcFunctional))},
		{"streaming/markov", elaborate(models.BuildStreaming(st))},
		{"streaming/functional", elaborate(models.BuildStreaming(stFunctional))},
		{"fig4", elaborate(models.BuildStreaming(fig4))},
		{"streaming-12x12", elaborate(models.BuildStreaming(stress))},
	}
	for _, c := range cases {
		states, err := elab.CompareCompiled(c.m, 2000)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if states < 10 {
			t.Fatalf("%s: only %d states compared", c.name, states)
		}
	}
}

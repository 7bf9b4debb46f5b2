package elab_test

import (
	"testing"

	"repro/internal/aemilia"
	"repro/internal/compose"
	"repro/internal/elab"
	"repro/internal/measure"
	"repro/internal/models"
)

// TestCompiledMatchesSuccessorsOnPaperModels runs the differential oracle
// on the rpc and streaming models in both modes and on the compositional
// quotients the minimizing Fig. 4 and 12×12 solve paths generate from.
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
	minimize := func(m *elab.Model, ms []measure.Measure) *elab.Model {
		t.Helper()
		qm, _, err := compose.Minimize(m, compose.Options{Preds: measure.StatePreds(ms)})
		if err != nil {
			t.Fatal(err)
		}
		return qm
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
		{"minimized/fig4", minimize(elaborate(models.BuildStreaming(fig4)), models.StreamingMeasures(fig4))},
		{"minimized/streaming-12x12", minimize(elaborate(models.BuildStreaming(stress)), models.StreamingMeasures(stress))},
		{"minimized/rpc", minimize(elaborate(models.BuildRPCRevised(rpc)), models.RPCMeasures(rpc))},
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

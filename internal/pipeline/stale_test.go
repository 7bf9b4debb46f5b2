package pipeline_test

import (
	"reflect"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/models"
	"repro/internal/pipeline"
)

// TestStoreKeysTheBuiltDescription is the regression for a stale result
// behind an unchanged Spec.Key: Key names a builder and its parameters,
// and an edit to the builder changes the description it returns without
// changing the Key. A result stored for the old description must not
// answer the new one, whose Phase2 must equal a fresh solve.
func TestStoreKeysTheBuiltDescription(t *testing.T) {
	p := models.DefaultRPCParams()
	edited := p
	edited.ShutdownTimeout *= 10
	spec := func(p models.RPCParams) pipeline.Spec {
		return pipeline.Spec{
			Key:      "rpc:the same key before and after the builder edit",
			Build:    func() (*aemilia.ArchiType, error) { return models.BuildRPCRevised(p) },
			Measures: models.RPCMeasures(p),
		}
	}
	fresh, err := pipeline.NewSession(spec(edited), pipeline.Config{}).Phase2()
	if err != nil {
		t.Fatal(err)
	}
	store := pipeline.NewMemoryStore()
	old, err := pipeline.NewSession(spec(p), pipeline.Config{Store: store}).Phase2()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(old.Values, fresh.Values) {
		t.Fatal("fixture: the builder edit does not change the solve")
	}
	got, err := pipeline.NewSession(spec(edited), pipeline.Config{Store: store}).Phase2()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Values, fresh.Values) {
		t.Errorf("after the builder edit the store answered %v, want the fresh solve %v", got.Values, fresh.Values)
	}
}

package pipeline_test

import (
	"reflect"
	"testing"

	"repro/internal/models"
	"repro/internal/pipeline"
)

// TestStoreKeysTheBuiltDescription is the regression for a stale result
// behind an unchanged model name: an edit to a builder changes the
// description it returns without changing the builder's name or
// parameters. The store keys the description itself, so a result stored
// for the old description must not answer the new one, whose Phase2
// must equal a fresh solve.
func TestStoreKeysTheBuiltDescription(t *testing.T) {
	p := models.DefaultRPCParams()
	edited := p
	edited.ShutdownTimeout *= 10
	fresh, err := pipeline.NewSession(rpcSpec(edited), pipeline.Config{}).Phase2()
	if err != nil {
		t.Fatal(err)
	}
	store := pipeline.NewMemoryStore()
	old, err := pipeline.NewSession(rpcSpec(p), pipeline.Config{Store: store}).Phase2()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(old.Values, fresh.Values) {
		t.Fatal("fixture: the builder edit does not change the solve")
	}
	got, err := pipeline.NewSession(rpcSpec(edited), pipeline.Config{Store: store}).Phase2()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Values, fresh.Values) {
		t.Errorf("after the builder edit the store answered %v, want the fresh solve %v", got.Values, fresh.Values)
	}
}

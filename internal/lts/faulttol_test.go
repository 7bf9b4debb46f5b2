package lts

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/faultinject"
)

// TestGeneratePanicIsolated injects a panic into a state expansion and
// checks it surfaces as a typed worker-panic error — attributed to the
// state being expanded, with the injected fault reachable — instead of
// crashing.
func TestGeneratePanicIsolated(t *testing.T) {
	plan := faultinject.NewPlan().Arm(faultinject.SiteGenerateExpand, 5)
	faultinject.Activate(plan)
	_, err := Generate(gridModel(t, 3), GenerateOptions{})
	faultinject.Deactivate()
	if err == nil {
		t.Fatal("injected panic vanished")
	}
	var wpe *fault.WorkerPanicError
	if !errors.As(err, &wpe) {
		t.Fatalf("want *fault.WorkerPanicError, got %T: %v", err, err)
	}
	if wpe.Pool != "lts.generate" || wpe.Task != "state 5" {
		t.Errorf("panic attributed to %s/%q, want lts.generate/\"state 5\"", wpe.Pool, wpe.Task)
	}
	if !errors.Is(err, fault.ErrWorkerPanic) {
		t.Errorf("errors.Is(err, fault.ErrWorkerPanic) is false")
	}
	var ie *faultinject.InjectedError
	if !errors.As(err, &ie) || ie.Site != faultinject.SiteGenerateExpand || ie.Key != 5 {
		t.Errorf("injected fault not recovered intact: %v", err)
	}
}

// TestGenerateCancel checks that generation observes a canceled context at
// a BFS level boundary and reports the typed cancellation error.
func TestGenerateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Generate(gridModel(t, 3), GenerateOptions{Ctx: ctx})
	if err == nil {
		t.Fatal("canceled generation succeeded")
	}
	var ce *fault.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("want *fault.CanceledError, got %T: %v", err, err)
	}
	if ce.Phase != "lts.generate" {
		t.Errorf("canceled in phase %q, want lts.generate", ce.Phase)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause chain lost context.Canceled: %v", err)
	}
}

// TestGenerateDeterministicAfterRecovery pins that fault instrumentation
// is observation-only and that a recovered panic leaves nothing behind:
// a plan armed for a key that never matches, and a regeneration from the
// same model after an injected panic, both yield the LTS of a clean run.
func TestGenerateDeterministicAfterRecovery(t *testing.T) {
	m := gridModel(t, 3)
	ref, err := Generate(m, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(faultinject.NewPlan().Arm(faultinject.SiteGenerateExpand, 1<<30))
	unfired, err := Generate(m, GenerateOptions{})
	faultinject.Deactivate()
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(faultinject.NewPlan().Arm(faultinject.SiteGenerateExpand, 7))
	_, err = Generate(m, GenerateOptions{})
	faultinject.Deactivate()
	if !errors.Is(err, fault.ErrWorkerPanic) {
		t.Fatalf("injected panic not reported: %v", err)
	}
	again, err := Generate(m, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := flatten(ref)
	for name, l := range map[string]*LTS{"armed-but-unfired": unfired, "after recovery": again} {
		got := flatten(l)
		if l.NumStates != ref.NumStates || len(got) != len(want) {
			t.Fatalf("%s: %d states, %d transitions; want %d, %d",
				name, l.NumStates, len(got), ref.NumStates, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: edge %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
}

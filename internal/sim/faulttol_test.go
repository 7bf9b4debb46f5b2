package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/elab"
	"repro/internal/fault"
	"repro/internal/faultinject"
	"repro/internal/rates"
	"repro/internal/rng"
)

// TestReplicationPanicIsolated injects a panic into one replication and
// checks it surfaces as a typed worker-panic error naming the replication,
// on both the sequential and pooled paths.
func TestReplicationPanicIsolated(t *testing.T) {
	for _, workers := range []int{1, 4} {
		plan := faultinject.NewPlan().Arm(faultinject.SiteSimReplication, 2)
		faultinject.Activate(plan)
		_, err := Run(Config{
			Model:        workRestModel(t, 2, 1),
			Measures:     workRestMeasures,
			RunLength:    100,
			Replications: 4,
			Seed:         7,
			Workers:      workers,
		})
		faultinject.Deactivate()
		if err == nil {
			t.Fatalf("workers=%d: injected panic vanished", workers)
		}
		if !strings.Contains(err.Error(), "replication 2") {
			t.Errorf("workers=%d: error %q does not name replication 2", workers, err)
		}
		var wpe *fault.WorkerPanicError
		if !errors.As(err, &wpe) {
			t.Fatalf("workers=%d: want *fault.WorkerPanicError, got %T: %v", workers, err, err)
		}
		if wpe.Pool != "sim" {
			t.Errorf("workers=%d: panic attributed to pool %q, want sim", workers, wpe.Pool)
		}
		if !errors.Is(err, fault.ErrWorkerPanic) {
			t.Errorf("workers=%d: errors.Is(err, fault.ErrWorkerPanic) is false", workers)
		}
		var ie *faultinject.InjectedError
		if !errors.As(err, &ie) || ie.Site != faultinject.SiteSimReplication || ie.Key != 2 {
			t.Errorf("workers=%d: injected fault not recovered intact: %v", workers, err)
		}
	}
}

// TestSimCancel checks that the event loop observes a canceled context and
// reports the typed cancellation error naming the replication.
func TestSimCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(Config{
		Model:        workRestModel(t, 2, 1),
		Measures:     workRestMeasures,
		RunLength:    100,
		Replications: 2,
		Seed:         7,
		Ctx:          ctx,
	})
	if err == nil {
		t.Fatal("canceled simulation succeeded")
	}
	var ce *fault.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("want *fault.CanceledError, got %T: %v", err, err)
	}
	if ce.Phase != "sim" {
		t.Errorf("canceled in phase %q, want sim", ce.Phase)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause chain lost context.Canceled: %v", err)
	}
}

// TestSimDeterministicWithArmedPlan pins that fault instrumentation is
// observation-only: estimates with a never-firing plan armed match a
// plain run exactly.
func TestSimDeterministicWithArmedPlan(t *testing.T) {
	cfg := Config{
		Model:        workRestModel(t, 2, 1),
		Measures:     workRestMeasures,
		RunLength:    200,
		Replications: 3,
		Seed:         11,
	}
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan().Arm(faultinject.SiteSimReplication, 1<<30)
	faultinject.Activate(plan)
	got, err := Run(cfg)
	faultinject.Deactivate()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range ref.Estimates {
		if got := got.Estimates[name]; got != want {
			t.Errorf("estimate %s changed under an unfired plan: %v != %v", name, got, want)
		}
	}
}

// pollCountCtx is a context whose Done channel closes after its k-th
// poll, so a cancellation lands at a known point of the event loop.
type pollCountCtx struct {
	context.Context
	polls, k int
	done     chan struct{}
}

func (c *pollCountCtx) Done() <-chan struct{} {
	c.polls++
	if c.polls == c.k+1 {
		close(c.done)
	}
	return c.done
}

func (c *pollCountCtx) Err() error {
	if c.polls > c.k {
		return context.Canceled
	}
	return nil
}

// TestCancelSeenDuringLinkWalks drives a model whose every loop
// iteration after the first few advances the event count by two — a timed
// work step, then the one-way zero-time done step its link walk fires —
// from an odd count, since a one-way zero-time start step comes first.
// The count at the loop top is then never a multiple of pollEvents, so
// a poll keyed to multiples would never come again; polls must come at
// most pollEvents plus one step and its walk apart. A walk that reaches
// MaxEvents stops exactly there, with the error a loop without links
// reports.
func TestCancelSeenDuringLinkWalks(t *testing.T) {
	et := aemilia.NewElemType("C_Type", nil, nil,
		aemilia.NewBehavior("Init", nil,
			aemilia.Pre("start", rates.Inf(1, 1), aemilia.Invoke("A"))),
		aemilia.NewBehavior("A", nil,
			aemilia.Pre("work", rates.ExpRate(1), aemilia.Invoke("B"))),
		aemilia.NewBehavior("B", nil,
			aemilia.Pre("done", rates.Inf(1, 1), aemilia.Invoke("A"))))
	a := aemilia.NewArchiType("C", []*aemilia.ElemType{et},
		[]*aemilia.Instance{aemilia.NewInstance("X", "C_Type")}, nil)
	m, err := elab.Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	replicate := func(ctx context.Context, maxEvents int) (*runner, int64, error) {
		p, err := newPlan(Config{Model: m, RunLength: 1e9, MaxEvents: maxEvents, Ctx: ctx})
		if err != nil {
			t.Fatal(err)
		}
		r := p.newRunner()
		_, events, err := r.replicate(0, rng.New(1))
		return r, events, err
	}

	const k = 3
	ctx := &pollCountCtx{Context: context.Background(), k: k, done: make(chan struct{})}
	r, events, err := replicate(ctx, 1_000_000)
	var ce *fault.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("want *fault.CanceledError after %d polls, got %v (%d events, %d polls)", k, err, events, ctx.polls)
	}
	// Poll j+1 comes at the first loop top at least pollEvents after poll
	// j, and loop tops are two events apart.
	if events < k*pollEvents || events > k*(pollEvents+1) {
		t.Errorf("canceled at %d events, want within [%d, %d]", events, k*pollEvents, k*(pollEvents+1))
	}
	linked := 0
	for _, tr := range r.trans {
		if tr.next1 >= 0 {
			linked++
		}
	}
	if linked != 1 {
		t.Errorf("%d linked transitions, want 1 (work into the one-way B)", linked)
	}

	for _, maxEvents := range []int{2000, 2001} {
		_, events, err := replicate(nil, maxEvents)
		if want := fmt.Sprintf("sim: exceeded %d events", maxEvents); err == nil || err.Error() != want {
			t.Errorf("MaxEvents %d: error %v, want %q", maxEvents, err, want)
		}
		if events != int64(maxEvents) {
			t.Errorf("MaxEvents %d: stopped at %d events", maxEvents, events)
		}
	}
}

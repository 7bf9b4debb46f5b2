// Fault-tolerance properties of the session sweep: cancellation with
// checkpoint/resume bit-identity, resuming a non-converged sweep with a
// larger budget, panic attribution, and the checkpoint format's failure
// modes.
package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/fault"
	"repro/internal/faultinject"
	"repro/internal/measure"
	"repro/internal/models"
	"repro/internal/pipeline"
)

// rpcSweepFixture returns the parametric rpc model, its measures, and a
// 9-point timeout grid — the shared input of the sweep property tests.
func rpcSweepFixture(t *testing.T) (*elab.Model, []measure.Measure, [][]float64) {
	t.Helper()
	p := models.DefaultRPCParams()
	p.ParametricTimeout = true
	points := make([][]float64, 0, 9)
	for _, T := range []float64{0.5, 1, 2, 4, 5, 7.5, 10, 15, 25} {
		points = append(points, []float64{1 / T})
	}
	return elaborateRPC(t, p), models.RPCMeasures(p), points
}

// requireSameValues checks that got holds a report for every point of
// want with bit-identical measure values and the same state-space sizes.
func requireSameValues(t *testing.T, tag string, want, got []*pipeline.Phase2Report) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d reports vs %d", tag, len(want), len(got))
	}
	for i := range want {
		if got[i] == nil {
			t.Fatalf("%s: report %d missing", tag, i)
		}
		for name, w := range want[i].Values {
			if g := got[i].Values[name]; g != w {
				t.Errorf("%s: point %d measure %s: %v != %v (must be bit-identical)", tag, i, name, g, w)
			}
		}
		if want[i].States != got[i].States || want[i].Tangible != got[i].Tangible {
			t.Errorf("%s: point %d sizes differ", tag, i)
		}
	}
}

// requireSameReports is requireSameValues plus equal solve traces.
func requireSameReports(t *testing.T, tag string, want, got []*pipeline.Phase2Report) {
	t.Helper()
	requireSameValues(t, tag, want, got)
	for i := range want {
		if !reflect.DeepEqual(want[i].Trace, got[i].Trace) {
			t.Errorf("%s: point %d trace differs:\n got %+v\nwant %+v", tag, i, got[i].Trace, want[i].Trace)
		}
	}
}

// TestPhase2SweepCancelCheckpointResume is the flagship resilience
// property: a sweep canceled mid-run with checkpointing enabled, then
// resumed, produces reports bit-identical to an uninterrupted run — at
// one worker, at two, and at more workers than chunks.
func TestPhase2SweepCancelCheckpointResume(t *testing.T) {
	m, measures, points := rpcSweepFixture(t)
	none := ctmc.SolveOptions{}

	baseline, err := sweep(m, measures, none, pipeline.Config{}, points, nil)
	if err != nil {
		t.Fatal(err)
	}

	// A chunk is one four-lane group, so every later solve starts a new
	// chunk, as the plan below needs: a second group inside a wider chunk
	// would wait for a checkpoint that is only written once its own chunk
	// finishes.
	for _, workers := range []int{1, 2, 8} {
		tag := fmt.Sprintf("workers=%d", workers)
		path := filepath.Join(t.TempDir(), "sweep.ckpt")

		// The first solve to pass iteration 2 runs to completion and
		// is checkpointed (Every: 1). Every later solve that reaches
		// iteration 2 — a concurrent chunk, or the next chunk a worker
		// claims — waits for that checkpoint and then cancels the
		// sweep, so at every worker count some points are
		// checkpointed and at least one is interrupted.
		ctx, cancel := context.WithCancel(context.Background())
		var first atomic.Bool
		plan := faultinject.NewPlan().Arm(faultinject.SiteSolveIteration, 2).
			OnFire(faultinject.SiteSolveIteration, func(int) {
				if first.CompareAndSwap(false, true) {
					return
				}
				waitForFile(t, path)
				cancel()
			})
		faultinject.Activate(plan)
		_, err := sweep(m, measures, none, pipeline.Config{Workers: workers, Ctx: ctx},
			points, &pipeline.CheckpointOptions{Path: path, Every: 1})
		faultinject.Deactivate()
		cancel()
		if err == nil {
			t.Fatalf("%s: cancellation ignored", tag)
		}
		var ce *fault.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: want *fault.CanceledError, got %T: %v", tag, err, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cause chain lost context.Canceled: %v", tag, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: canceled sweep left no checkpoint: %v", tag, err)
		}

		resumed, err := sweep(m, measures, none, pipeline.Config{Workers: workers},
			points, &pipeline.CheckpointOptions{Path: path, Every: 1, Resume: true})
		if err != nil {
			t.Fatalf("%s: resume failed: %v", tag, err)
		}
		requireSameReports(t, tag, baseline, resumed)
	}
}

// waitForFile blocks until path exists, failing the test after 30 s.
func waitForFile(t *testing.T, path string) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%s never appeared", path)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPhase2SweepPanicAttribution injects a panic at sweep point 3 and
// checks it surfaces as a typed worker-panic error — injected fault
// intact — instead of crashing, at one, two and eight workers.
func TestPhase2SweepPanicAttribution(t *testing.T) {
	m, measures, points := rpcSweepFixture(t)

	for _, workers := range []int{1, 2, 8} {
		tag := fmt.Sprintf("workers=%d", workers)
		plan := faultinject.NewPlan().Arm(faultinject.SiteSweepPoint, 3)
		faultinject.Activate(plan)
		_, err := sweep(m, measures, ctmc.SolveOptions{}, pipeline.Config{Workers: workers}, points, nil)
		faultinject.Deactivate()
		if err == nil {
			t.Fatalf("%s: injected panic vanished", tag)
		}
		var wpe *fault.WorkerPanicError
		if !errors.As(err, &wpe) {
			t.Fatalf("%s: want *fault.WorkerPanicError, got %T: %v", tag, err, err)
		}
		if wpe.Pool != "core.sweep" {
			t.Errorf("%s: panic attributed to pool %q, want core.sweep", tag, wpe.Pool)
		}
		if !errors.Is(err, fault.ErrWorkerPanic) {
			t.Errorf("%s: errors.Is(err, fault.ErrWorkerPanic) is false", tag)
		}
		var ie *faultinject.InjectedError
		if !errors.As(err, &ie) || ie.Site != faultinject.SiteSweepPoint || ie.Key != 3 {
			t.Errorf("%s: injected fault not recovered intact: %v", tag, err)
		}
		if !strings.Contains(err.Error(), "point") {
			t.Errorf("%s: error %q does not name a point", tag, err)
		}
	}
}

// TestPhase2SweepPanicDefaultChunks pins how a short grid is chunked: an
// 8-point streaming period sweep runs as two four-point chunks, so a
// panic at point 5 is attributed to the chunk "points 4-7", not to one
// chunk holding the whole grid, on two workers and on eight alike — the
// chunk width does not follow the worker count.
func TestPhase2SweepPanicDefaultChunks(t *testing.T) {
	p := quickStreamingParams()
	p.ParametricPeriod = true
	var points [][]float64
	for _, P := range []float64{5, 25, 50, 100, 200, 400, 600, 800} {
		points = append(points, []float64{1 / P})
	}
	for _, c := range []struct {
		workers int
		task    string
	}{{2, "points 4-7"}, {8, "points 4-7"}} {
		faultinject.Activate(faultinject.NewPlan().Arm(faultinject.SiteSweepPoint, 5))
		_, err := sweep(elaborateStreaming(t, p), models.StreamingMeasures(p), ctmc.SolveOptions{},
			pipeline.Config{Workers: c.workers}, points, nil)
		faultinject.Deactivate()
		var wpe *fault.WorkerPanicError
		if !errors.As(err, &wpe) {
			t.Fatalf("workers=%d: want *fault.WorkerPanicError, got %T: %v", c.workers, err, err)
		}
		if wpe.Task != c.task {
			t.Errorf("workers=%d: panic attributed to %q, want %q", c.workers, wpe.Task, c.task)
		}
	}
}

// TestPhase2SweepCheckpointResumeLargerBudget pins how a sweep that fails
// to converge is completed: a checkpointed sweep (Every: 1) whose
// iteration budget suffices for some points fails with the
// *ctmc.ConvergenceError of the lowest failed point, having checkpointed
// the converged points below it, and resuming it at the default budget
// gives reports bit-identical to an uninterrupted default-budget sweep —
// at one, two and eight workers. The checkpoint does not fingerprint the
// budget, and the resume solves only the points the failed run left: a
// panic armed at each point of the chunks it restored whole never fires.
func TestPhase2SweepCheckpointResumeLargerBudget(t *testing.T) {
	m, measures, points := rpcSweepFixture(t)

	// Order the points by the iterations a default solve needs, and pick
	// a budget that converges the first half: every point up to mid
	// converges and point mid+1 is the lowest to fail.
	chain := privateChain(t, m)
	iters := make(map[float64]int, len(points))
	for _, p := range points {
		if err := chain.Rebind(p); err != nil {
			t.Fatal(err)
		}
		_, trace, err := chain.SteadyStateTraced(ctmc.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		iters[p[0]] = trace.Attempts[0].Iterations
	}
	sort.Slice(points, func(a, b int) bool { return iters[points[a][0]] < iters[points[b][0]] })
	mid := len(points) / 2
	budget := iters[points[mid][0]]
	if iters[points[mid+1][0]] <= budget {
		t.Fatalf("fixture: point %d needs %d iterations, not more than the budget %d", mid+1, iters[points[mid+1][0]], budget)
	}

	baseline, err := sweep(m, measures, ctmc.SolveOptions{}, pipeline.Config{}, points, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		tag := fmt.Sprintf("workers=%d", workers)
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		cfg := pipeline.Config{Workers: workers}

		_, err := sweep(m, measures, ctmc.SolveOptions{MaxIterations: budget}, cfg,
			points, &pipeline.CheckpointOptions{Path: path, Every: 1})
		var ce *ctmc.ConvergenceError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: want a *ctmc.ConvergenceError, got %v", tag, err)
		}
		if ce.Point != mid+1 || ce.Iterations != budget || !reflect.DeepEqual(ce.Params, points[mid+1]) {
			t.Errorf("%s: failure at point %d %v after %d iterations, want point %d %v after %d",
				tag, ce.Point, ce.Params, ce.Iterations, mid+1, points[mid+1], budget)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: failed sweep left no checkpoint: %v", tag, err)
		}

		// Points 0..mid are checkpointed; a chunk holding any later point
		// is solved again, so only the whole chunks below are armed.
		plan := faultinject.NewPlan()
		for i := 0; i < (mid+1)/ctmc.BatchLanes*ctmc.BatchLanes; i++ {
			plan.Arm(faultinject.SiteSweepPoint, i)
		}
		faultinject.Activate(plan)
		resumed, err := sweep(m, measures, ctmc.SolveOptions{}, cfg,
			points, &pipeline.CheckpointOptions{Path: path, Every: 1, Resume: true})
		faultinject.Deactivate()
		if err != nil {
			t.Fatalf("%s: resume at the default budget failed: %v", tag, err)
		}
		requireSameReports(t, tag, baseline, resumed)
	}
}

// TestPhase2SweepCheckpointWriteFailure checks that checkpoint writes are
// strict: an injected failure of the first write aborts the sweep with
// the typed checkpoint error instead of carrying on unresumable.
func TestPhase2SweepCheckpointWriteFailure(t *testing.T) {
	m, measures, points := rpcSweepFixture(t)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	plan := faultinject.NewPlan().Arm(faultinject.SiteCheckpointWrite, 0)
	faultinject.Activate(plan)
	_, err := sweep(m, measures, ctmc.SolveOptions{}, pipeline.Config{}, points,
		&pipeline.CheckpointOptions{Path: path, Every: 1})
	faultinject.Deactivate()
	if err == nil {
		t.Fatal("failed checkpoint write ignored")
	}
	var cke *pipeline.CheckpointError
	if !errors.As(err, &cke) || cke.Op != "write" {
		t.Fatalf("want a write *CheckpointError, got %T: %v", err, err)
	}
	var ie *faultinject.InjectedError
	if !errors.As(err, &ie) || ie.Site != faultinject.SiteCheckpointWrite {
		t.Errorf("injected write fault not recovered intact: %v", err)
	}
}

// TestCheckpointResumeRejects checks the resume guards: corrupt files and
// structurally mismatched checkpoints abort loudly; a missing file means
// a fresh start.
func TestCheckpointResumeRejects(t *testing.T) {
	m, measures, points := rpcSweepFixture(t)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	run := func(points [][]float64, ck *pipeline.CheckpointOptions) ([]*pipeline.Phase2Report, error) {
		return sweep(m, measures, ctmc.SolveOptions{}, pipeline.Config{}, points, ck)
	}

	// Missing file: resume is a fresh start, and completes the checkpoint.
	reps, err := run(points, &pipeline.CheckpointOptions{Path: path, Every: 1, Resume: true})
	if err != nil {
		t.Fatal(err)
	}

	// A full checkpoint resumes to identical reports.
	resumed, err := run(points, &pipeline.CheckpointOptions{Path: path, Every: 1, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameReports(t, "complete-resume", reps, resumed)

	// A different point set must be rejected as a mismatch.
	_, err = run(points[:5], &pipeline.CheckpointOptions{Path: path, Resume: true})
	if !errors.Is(err, pipeline.ErrCheckpointMismatch) {
		t.Errorf("mismatched sweep resumed: %v", err)
	}

	// So must a different solver tolerance: values solved to 1e-3 used to
	// resume into a default-tolerance sweep, up to 2.9e-4 relative off.
	// The default tolerance spelled out is the same sweep.
	loose := filepath.Join(t.TempDir(), "loose.ckpt")
	if _, err := sweep(m, measures, ctmc.SolveOptions{Tolerance: 1e-3}, pipeline.Config{}, points,
		&pipeline.CheckpointOptions{Path: loose, Every: 1}); err != nil {
		t.Fatal(err)
	}
	_, err = run(points, &pipeline.CheckpointOptions{Path: loose, Resume: true})
	if !errors.Is(err, pipeline.ErrCheckpointMismatch) {
		t.Errorf("checkpoint solved to tolerance 1e-3 resumed at the default tolerance: %v", err)
	}
	explicit, err := sweep(m, measures, ctmc.SolveOptions{Tolerance: ctmc.DefaultTolerance}, pipeline.Config{}, points,
		&pipeline.CheckpointOptions{Path: path, Resume: true})
	if err != nil {
		t.Fatalf("default-tolerance checkpoint rejected at an explicit default tolerance: %v", err)
	}
	requireSameReports(t, "explicit-tolerance resume", reps, explicit)

	// A flipped byte must be detected by the checksum.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = run(points, &pipeline.CheckpointOptions{Path: path, Resume: true})
	if !errors.Is(err, pipeline.ErrCheckpointCorrupt) {
		t.Errorf("corrupt checkpoint resumed: %v", err)
	}

	// Checkpointing with no path is a configuration error.
	if _, err := run(points, &pipeline.CheckpointOptions{}); err == nil {
		t.Error("empty checkpoint path accepted")
	}
}

// TestPhase2SweepEdgePoints covers the degenerate sweeps: no points, a
// single point, a slot-free model's one empty point, and duplicate rate
// vectors.
func TestPhase2SweepEdgePoints(t *testing.T) {
	m, measures, _ := rpcSweepFixture(t)
	none := ctmc.SolveOptions{}

	// Zero points: nothing to do, no error.
	reps, err := sweep(m, measures, none, pipeline.Config{}, nil, nil)
	if err != nil || reps != nil {
		t.Errorf("empty sweep: got (%v, %v), want (nil, nil)", reps, err)
	}

	// Single point at the model's own rates: the sweep is exactly one
	// cold one-lane solve, bit-identical to the non-sweep phase-2 path.
	l, err := pipeline.NewSession(pipeline.Spec{Model: m, Measures: measures}, pipeline.Config{}).LTS()
	if err != nil {
		t.Fatal(err)
	}
	single, err := sweep(m, measures, none, pipeline.Config{}, [][]float64{l.SlotDefaults()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct := phase2(t, m, measures)
	for name, want := range direct.Values {
		if got := single[0].Values[name]; got != want {
			t.Errorf("single-point sweep measure %s: %v != %v (must match the direct solve bit for bit)", name, got, want)
		}
	}

	// A slot-free model is accepted as exactly one empty point — the
	// checkpointable single solve the CLI uses — but never as a sweep.
	plain := elaborateRPC(t, models.DefaultRPCParams())
	plainMeasures := models.RPCMeasures(models.DefaultRPCParams())
	path := filepath.Join(t.TempDir(), "single.ckpt")
	solo, err := sweep(plain, plainMeasures, none, pipeline.Config{}, [][]float64{{}},
		&pipeline.CheckpointOptions{Path: path, Every: 1})
	if err != nil {
		t.Fatalf("slot-free single-point sweep failed: %v", err)
	}
	plainDirect := phase2(t, plain, plainMeasures)
	for name, want := range plainDirect.Values {
		if got := solo[0].Values[name]; got != want {
			t.Errorf("slot-free solve measure %s: %v != %v", name, got, want)
		}
	}
	resumedSolo, err := sweep(plain, plainMeasures, none, pipeline.Config{}, [][]float64{{}},
		&pipeline.CheckpointOptions{Path: path, Every: 1, Resume: true})
	if err != nil {
		t.Fatalf("slot-free resume failed: %v", err)
	}
	requireSameReports(t, "slot-free resume", solo, resumedSolo)
	if _, err := sweep(plain, plainMeasures, none, pipeline.Config{}, [][]float64{{}, {}}, nil); err == nil {
		t.Error("multi-point sweep of a slot-free model accepted")
	}

	// Duplicate rate vectors — the first point's included — run the same
	// cold solve, so their reports are bit-identical, whether they share
	// a chunk or not, at one and two workers.
	dup := [][]float64{{1. / 5}, {1. / 2}, {1. / 10}, {1. / 2}, {1. / 10}, {1. / 5}}
	for _, workers := range []int{1, 2} {
		reps, err := sweep(m, measures, none, pipeline.Config{Workers: workers}, dup, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]int{{0, 5}, {1, 3}, {2, 4}} {
			a, b := reps[pair[0]].Values, reps[pair[1]].Values
			for name, va := range a {
				if vb := b[name]; va != vb {
					t.Errorf("workers=%d: duplicate points %v: measure %s differs: %v != %v",
						workers, pair, name, va, vb)
				}
			}
		}
	}
}

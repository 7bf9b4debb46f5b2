// Fault-tolerance properties of the session sweep: cancellation with
// bit-identical resume from a FileStore, resuming a non-converged sweep
// with a larger budget, strict store writes, panic attribution, and the
// store file's failure modes.
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
	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/models"
	"repro/internal/pipeline"
)

// rpcSweepFixture returns the parametric rpc model, its measures, and a
// 9-point timeout grid — the shared input of the sweep property tests.
func rpcSweepFixture(t *testing.T) (*elab.Model, []measure.Measure, [][]float64) {
	t.Helper()
	p := parametricRPC()
	return elaborateRPC(t, p), models.RPCMeasures(p), rpcTimeoutGrid()
}

// parametricRPC is the rpc model with its shutdown timeout a rate slot.
func parametricRPC() models.RPCParams {
	p := models.DefaultRPCParams()
	p.ParametricTimeout = true
	return p
}

// rpcTimeoutGrid is the 9-point timeout grid of the sweep property tests.
func rpcTimeoutGrid() [][]float64 {
	points := make([][]float64, 0, 9)
	for _, T := range []float64{0.5, 1, 2, 4, 5, 7.5, 10, 15, 25} {
		points = append(points, []float64{1 / T})
	}
	return points
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
// property: a sweep canceled mid-run on a FileStore, then resumed from
// the store file, produces reports bit-identical to an uninterrupted run
// — at one worker, at two, and at more workers than chunks.
func TestPhase2SweepCancelCheckpointResume(t *testing.T) {
	p, points := parametricRPC(), rpcTimeoutGrid()
	none := ctmc.SolveOptions{}

	baseline, err := sweepRPC(p, none, pipeline.Config{}, points)
	if err != nil {
		t.Fatal(err)
	}

	// A chunk is one four-lane group, so every later solve starts a new
	// chunk, as the plan below needs: a second group inside a wider chunk
	// would wait for a store entry that is only put once its own chunk
	// finishes.
	for _, workers := range []int{1, 2, 8} {
		tag := fmt.Sprintf("workers=%d", workers)
		path := filepath.Join(t.TempDir(), "sweep.store")
		store := openStore(t, path, false)

		// The first solve to pass iteration 2 runs to completion and
		// is stored. Every later solve that reaches iteration 2 — a
		// concurrent chunk, or the next chunk a worker claims — waits
		// for that entry and then cancels the sweep, so at every worker
		// count some points are stored and at least one is interrupted.
		ctx, cancel := context.WithCancel(context.Background())
		var first atomic.Bool
		plan := faultinject.NewPlan().Arm(faultinject.SiteSolveIteration, 2).
			OnFire(faultinject.SiteSolveIteration, func(int) {
				if first.CompareAndSwap(false, true) {
					return
				}
				waitForEntry(t, store)
				cancel()
			})
		faultinject.Activate(plan)
		_, err := sweepRPC(p, none, pipeline.Config{Workers: workers, Ctx: ctx, Store: store}, points)
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
		if store.Len() == 0 {
			t.Fatalf("%s: canceled sweep stored no point", tag)
		}
		store.Close()

		resumed, err := sweepRPC(p, none, pipeline.Config{Workers: workers, Store: openStore(t, path, true)}, points)
		if err != nil {
			t.Fatalf("%s: resume failed: %v", tag, err)
		}
		requireSameReports(t, tag, baseline, resumed)
	}
}

// waitForEntry blocks until store holds a report, failing the test after
// 30 s.
func waitForEntry(t *testing.T, store *pipeline.FileStore) {
	deadline := time.Now().Add(30 * time.Second)
	for store.Len() == 0 {
		if time.Now().After(deadline) {
			t.Errorf("no report was ever stored")
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// openStore opens the FileStore at path, closing it when the test ends.
func openStore(t *testing.T, path string, resume bool) *pipeline.FileStore {
	t.Helper()
	store, err := pipeline.OpenFileStore(path, resume)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
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
		_, err := sweep(m, measures, ctmc.SolveOptions{}, pipeline.Config{Workers: workers}, points)
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
			pipeline.Config{Workers: c.workers}, points)
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
// to converge is completed: a sweep on a FileStore whose iteration
// budget suffices for some points fails with the *ctmc.ConvergenceError
// of the lowest failed point, having stored the converged points below
// it, and resuming it from the store file at the default budget gives
// reports bit-identical to an uninterrupted default-budget sweep — at
// one, two and eight workers. The store key leaves the budget out, and
// the resume solves only the points the failed run left: a panic armed
// at each point of the chunks it restored whole never fires.
func TestPhase2SweepCheckpointResumeLargerBudget(t *testing.T) {
	m, _, points := rpcSweepFixture(t)
	p := parametricRPC()

	// Order the points by the iterations a default solve needs, and pick
	// a budget that converges the first half: every point up to mid
	// converges and point mid+1 is the lowest to fail.
	s := pipeline.NewSession(pipeline.Spec{Model: m}, pipeline.Config{})
	iters := make(map[float64]int, len(points))
	for _, p := range points {
		_, trace, err := boundChain(t, s, p).SteadyStateTraced(ctmc.SolveOptions{})
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

	baseline, err := sweepRPC(p, ctmc.SolveOptions{}, pipeline.Config{}, points)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		tag := fmt.Sprintf("workers=%d", workers)
		path := filepath.Join(t.TempDir(), "sweep.store")
		store := openStore(t, path, false)

		_, err := sweepRPC(p, ctmc.SolveOptions{MaxIterations: budget}, pipeline.Config{Workers: workers, Store: store}, points)
		var ce *ctmc.ConvergenceError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: want a *ctmc.ConvergenceError, got %v", tag, err)
		}
		if ce.Point != mid+1 || ce.Iterations != budget || !reflect.DeepEqual(ce.Params, points[mid+1]) {
			t.Errorf("%s: failure at point %d %v after %d iterations, want point %d %v after %d",
				tag, ce.Point, ce.Params, ce.Iterations, mid+1, points[mid+1], budget)
		}
		if store.Len() == 0 {
			t.Fatalf("%s: failed sweep stored no point", tag)
		}
		store.Close()

		// Points 0..mid are stored; a chunk holding any later point is
		// solved again, so only the whole chunks below are armed.
		plan := faultinject.NewPlan()
		for i := 0; i < (mid+1)/ctmc.BatchLanes*ctmc.BatchLanes; i++ {
			plan.Arm(faultinject.SiteSweepPoint, i)
		}
		faultinject.Activate(plan)
		resumed, err := sweepRPC(p, ctmc.SolveOptions{}, pipeline.Config{Workers: workers, Store: openStore(t, path, true)}, points)
		faultinject.Deactivate()
		if err != nil {
			t.Fatalf("%s: resume at the default budget failed: %v", tag, err)
		}
		requireSameReports(t, tag, baseline, resumed)
	}
}

// failingStore is a MemoryStore whose every Put fails with err.
type failingStore struct {
	*pipeline.MemoryStore
	err error
}

func (s failingStore) Put(pipeline.ResultKey, *pipeline.Phase2Report) error { return s.err }

// TestPhase2SweepCheckpointWriteFailure checks that store writes are
// strict: a Put that fails aborts the sweep at the first point it stores,
// with the store's error intact, instead of carrying on unresumable; the
// same holds for Phase2.
func TestPhase2SweepCheckpointWriteFailure(t *testing.T) {
	p, points := parametricRPC(), rpcTimeoutGrid()
	errPut := errors.New("disk full")
	store := failingStore{MemoryStore: pipeline.NewMemoryStore(), err: errPut}

	_, err := sweepRPC(p, ctmc.SolveOptions{}, pipeline.Config{Store: store}, points)
	if err == nil {
		t.Fatal("failed store write ignored")
	}
	if !errors.Is(err, errPut) || !strings.Contains(err.Error(), "point 0") {
		t.Fatalf("want the store's error at point 0, got %v", err)
	}
	if _, err := pipeline.NewSession(rpcSpec(p), pipeline.Config{Store: store}).Phase2(); !errors.Is(err, errPut) {
		t.Errorf("Phase2: want the store's error, got %v", err)
	}
}

// TestCheckpointResumeRejects checks the resume guards of a FileStore. A
// missing file is a fresh start. A store of other results — another grid,
// another tolerance, another model — is no error but a miss: the sweep
// solves what the store lacks and matches a fresh solve. A corrupt
// record, a file of another format version (version 7 included, whose
// values the solver before extrapolation computed), or a file that is not
// a store is refused with an error naming the file; a torn last record is
// dropped.
func TestCheckpointResumeRejects(t *testing.T) {
	p, points := parametricRPC(), rpcTimeoutGrid()
	path := filepath.Join(t.TempDir(), "sweep.store")
	run := func(solve ctmc.SolveOptions, points [][]float64, resume bool) []*pipeline.Phase2Report {
		t.Helper()
		reps, err := sweepRPC(p, solve, pipeline.Config{Store: openStore(t, path, resume)}, points)
		if err != nil {
			t.Fatal(err)
		}
		return reps
	}
	resumeErr := func() error {
		_, err := pipeline.OpenFileStore(path, true)
		if err != nil && !strings.Contains(err.Error(), path) {
			t.Errorf("error %q does not name %s", err, path)
		}
		return err
	}

	// Missing file: resume is a fresh start, and fills the store.
	reps := run(ctmc.SolveOptions{}, points, true)

	// A full store resumes to identical reports without generating.
	calls := lts.GenerateCalls()
	requireSameReports(t, "complete-resume", reps, run(ctmc.SolveOptions{}, points, true))
	if d := lts.GenerateCalls() - calls; d != 0 {
		t.Errorf("a sweep the store holds whole generated %d times", d)
	}

	// Another grid is no mismatch: its common points are hits.
	requireSameReports(t, "sub-grid resume", reps[:5], run(ctmc.SolveOptions{}, points[:5], true))

	// Values solved to 1e-3 used to resume into a default-tolerance
	// sweep, up to 2.9e-4 relative off; they are now a miss, stored
	// beside the default-tolerance values. The default tolerance spelled
	// out is the same sweep.
	loose := run(ctmc.SolveOptions{Tolerance: 1e-3}, points, true)
	if reflect.DeepEqual(loose[0].Values, reps[0].Values) {
		t.Fatal("fixture: tolerance 1e-3 solves to the default-tolerance values")
	}
	requireSameReports(t, "default-tolerance resume", reps, run(ctmc.SolveOptions{}, points, true))
	requireSameReports(t, "explicit-tolerance resume", reps, run(ctmc.SolveOptions{Tolerance: ctmc.DefaultTolerance}, points, true))

	// Another model's store is a miss too: the non-parametric rpc model's
	// Phase2 is solved afresh on it (a fresh solve carries its trace, a
	// stored report none), and then stored.
	plain := models.DefaultRPCParams()
	want := phase2(t, elaborateRPC(t, plain), models.RPCMeasures(plain))
	plainPhase2 := func(tag string, hit bool) {
		t.Helper()
		got, err := pipeline.NewSession(rpcSpec(plain), pipeline.Config{Store: openStore(t, path, true)}).Phase2()
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if !reflect.DeepEqual(got.Values, want.Values) || (got.Trace == nil) != hit {
			t.Errorf("%s: got %+v, want the fresh solve %+v (hit %t)", tag, got, want, hit)
		}
	}
	plainPhase2("another model", false)
	plainPhase2("another model, stored", true)

	// A torn last record — the plain Phase2 — is dropped and solved
	// again; the file is cut at the last complete record, so the next
	// append lands cleanly and loads.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	plainPhase2("torn tail", false)
	plainPhase2("re-appended after a torn tail", true)
	requireSameReports(t, "torn-tail resume", reps, run(ctmc.SolveOptions{}, points, true))

	// A flipped byte inside a complete record fails its checksum.
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		want error
	}{
		{"corrupt record", flip(data, len(data)/2), pipeline.ErrStoreCorrupt},
		{"other version", append([]byte("DPMCKPT5"), data[8:]...), pipeline.ErrStoreVersion},
		{"version 7, solved without extrapolation", append([]byte("DPMCKPT7"), data[8:]...), pipeline.ErrStoreVersion},
		{"not a store", []byte("states: 546 (tangible 48, vanishing 498)\n"), pipeline.ErrNotStore},
	} {
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := resumeErr(); !errors.Is(err, c.want) {
			t.Errorf("%s: want %v, got %v", c.name, c.want, err)
		}
	}

	// Without resume, the file is started afresh whatever it held.
	if reps := run(ctmc.SolveOptions{}, points[:1], false); reps[0] == nil {
		t.Error("fresh store did not solve")
	}

	// A store with no path is a configuration error.
	if _, err := pipeline.OpenFileStore("", false); err == nil {
		t.Error("empty store path accepted")
	}
}

// flip returns a copy of data with the byte at i inverted.
func flip(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0xff
	return out
}

// TestPhase2SweepEdgePoints covers the degenerate sweeps: no points, a
// single point, a slot-free model (refused), and duplicate rate vectors.
func TestPhase2SweepEdgePoints(t *testing.T) {
	m, measures, _ := rpcSweepFixture(t)
	none := ctmc.SolveOptions{}

	// Zero points: nothing to do, no error.
	reps, err := sweep(m, measures, none, pipeline.Config{}, nil)
	if err != nil || reps != nil {
		t.Errorf("empty sweep: got (%v, %v), want (nil, nil)", reps, err)
	}

	// Single point at the model's own rates (the timeout slot holds
	// 1/ShutdownTimeout): the sweep is exactly one cold one-lane solve,
	// bit-identical to the non-sweep phase-2 path.
	own := []float64{1 / parametricRPC().ShutdownTimeout}
	single, err := sweep(m, measures, none, pipeline.Config{}, [][]float64{own})
	if err != nil {
		t.Fatal(err)
	}
	direct := phase2(t, m, measures)
	for name, want := range direct.Values {
		if got := single[0].Values[name]; got != want {
			t.Errorf("single-point sweep measure %s: %v != %v (must match the direct solve bit for bit)", name, got, want)
		}
	}

	// A slot-free model is refused, with one empty point or more, also
	// through a result store: its one solve is Phase2.
	plainParams := models.DefaultRPCParams()
	plain := elaborateRPC(t, plainParams)
	plainMeasures := models.RPCMeasures(plainParams)
	store := openStore(t, filepath.Join(t.TempDir(), "single.store"), false)
	for _, pts := range [][][]float64{{{}}, {{}, {}}} {
		_, err := sweep(plain, plainMeasures, none, pipeline.Config{Store: store}, pts)
		if err == nil || !strings.Contains(err.Error(), "use Phase2") {
			t.Errorf("%d-point sweep of a slot-free model: err = %v, want a refusal naming Phase2", len(pts), err)
		}
	}

	// Duplicate rate vectors — the first point's included — run the same
	// cold solve, so their reports are bit-identical, whether they share
	// a chunk or not, at one and two workers.
	dup := [][]float64{{1. / 5}, {1. / 2}, {1. / 10}, {1. / 2}, {1. / 10}, {1. / 5}}
	for _, workers := range []int{1, 2} {
		reps, err := sweep(m, measures, none, pipeline.Config{Workers: workers}, dup)
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

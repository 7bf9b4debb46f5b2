// Package sim is the discrete-event simulation engine of the methodology's
// third phase: it executes an elaborated architectural model as a
// generalized semi-Markov process (GSMP), so that activity durations can
// follow arbitrary distributions (deterministic, normal, …) instead of the
// exponential ones of the Markovian model.
//
// Semantics. Every enabled timed transition belongs to an *activity*,
// identified by its active participant (instance, action). A newly enabled
// activity samples a duration from its distribution — by default the
// exponential of its rate annotation, overridable per activity for the
// general models — and keeps its residual clock while it stays enabled
// (enabling-memory policy); disabling discards the clock. The activity
// with the smallest residual fires. Immediate actions pre-empt time,
// firing in zero time by priority and weight, exactly as in the CTMC
// extraction, so the simulator with exponential distributions estimates
// the same quantities the CTMC solver computes — the cross-validation the
// paper performs in Sect. 5.1.
//
// Measures are the same reward structures the Markovian analysis uses:
// STATE_REWARD clauses accumulate value × time while locally enabled,
// TRANS_REWARD clauses count weighted firings; both are normalized by the
// measured time, estimated over independent replications with Student-t
// confidence intervals.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/elab"
	"repro/internal/fault"
	"repro/internal/faultinject"
	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/rates"
	"repro/internal/rng"
	"repro/internal/statespace"
	"repro/internal/stats"
)

// Activity identifies a timed activity by its active participant.
type Activity struct {
	// Instance is the active instance name.
	Instance string
	// Action is the active action name.
	Action string
}

// Config parameterizes a simulation experiment.
type Config struct {
	// Model is the elaborated architectural model to execute.
	Model *elab.Model
	// Distributions overrides the duration distribution of activities;
	// activities without an override use the exponential of their rate.
	// An override naming an instance the model lacks, or an action that
	// instance neither performs nor declares, is an error.
	Distributions map[Activity]dist.Distribution
	// Measures are estimated during the run.
	Measures []measure.Measure
	// RunLength is the measured model-time horizon per replication (or
	// per batch, in batch-means mode).
	RunLength float64
	// Warmup is discarded model time before measurement starts.
	Warmup float64
	// Replications is the number of independent runs (default 30, the
	// paper's choice). Ignored in batch-means mode.
	Replications int
	// Batches, when positive, switches to the batch-means method: one
	// long run of Warmup + Batches×RunLength model time, each batch
	// contributing one observation. Cheaper than replications (a single
	// warm-up) at the cost of residual correlation between batches.
	Batches int
	// Seed seeds the master random stream (default 1).
	Seed uint64
	// ConfidenceLevel for the reported intervals: 0.80, 0.90, 0.95 or
	// 0.99 (default 0.90). Run rejects any other level.
	ConfidenceLevel float64
	// MaxEvents bounds the events per replication (default 50 million).
	MaxEvents int
	// Workers bounds the number of replications run concurrently
	// (default 1, i.e. sequential). Every replication draws from its own
	// split random stream and the per-replication observations are merged
	// in replication-index order, so the estimates are bit-identical at
	// any worker count. Ignored in batch-means mode (a single run).
	Workers int
	// Ctx cancels the experiment: every replication polls it periodically
	// in its event loop, and a cancellation surfaces as a
	// *fault.CanceledError (phase "sim", Point = replication index). A nil
	// context disables polling. Completed replications are unaffected —
	// each draws from its own split stream, so when a cancellation is
	// observed cannot change any finished observation.
	Ctx context.Context
}

// Result reports simulation estimates.
type Result struct {
	// Estimates maps measure names to confidence intervals.
	Estimates map[string]stats.Interval
	// Events is the total number of fired transitions across replications.
	Events int64
	// Replications is the number of completed runs.
	Replications int
}

// Estimate returns the interval of a named measure.
func (r *Result) Estimate(name string) (stats.Interval, bool) {
	ci, ok := r.Estimates[name]
	return ci, ok
}

// Simulation failure modes.
var (
	// ErrImmediateLivelock reports an unbounded sequence of immediate
	// firings.
	ErrImmediateLivelock = errors.New("sim: immediate livelock (unbounded zero-time sequence)")
	// ErrNoDistribution reports a timed transition whose activity has
	// neither an exponential rate nor an override.
	ErrNoDistribution = errors.New("sim: activity has no duration distribution")
)

// plan is the read-only part of a runner, shared by the runners of one
// Run: the configuration, the flattened measure clauses, and the tables
// over the compiled action and label ids, which every Compiled of the
// model numbers alike.
type plan struct {
	cfg Config

	// Flattened clauses: the predicate and value of each state-reward
	// clause (evaluated per state by the runner's Compiled) and the value
	// of each transition-reward clause. stateOf[m] and transOf[m] list the
	// flattened clauses of measure m.
	statePreds []elab.Pred
	stateVals  []float64
	transVals  []float64
	stateOf    [][]int
	transOf    [][]int

	// Activities are (instance, action id) slots: instance i's action a
	// is slot slotBase[i]+a. acts names every slot, for the exact-tie
	// tie-break and error messages, and overrides holds its duration
	// override (nil: none).
	slotBase  []int32
	acts      []Activity
	overrides []dist.Distribution
	// clIdx[clOff[l]:clOff[l+1]] lists the transition-reward clauses a
	// firing with compiled label l counts toward.
	clOff []int32
	clIdx []int32
}

// stateRec is the compiled form of a visited state, built once when the
// state is first entered. Every later event in the state touches only
// integers and float slices: no label, activity name or state key is
// hashed on the hot path. Transitions are numbered by the runner's
// per-transition arrays; a record whose state has been interned (as a
// transition target) but not yet entered is not ready.
type stateRec struct {
	// The fields every event reads come first, so that a timed step finds
	// ready, immTotal, acts and candOff in the record's first 64 bytes.
	ready bool
	// A nonzero immTotal makes the state vanishing: it is the total weight
	// of imm, the immediate transitions of the top priority level in
	// successor order, whose weights immW lists.
	immTotal float64
	// In a timed state (immTotal == 0), acts are the activity slots of the
	// state's transitions in first-occurrence order (empty: deadlock);
	// vanishing states leave the activity fields empty. dists[i] is the
	// duration distribution of acts[i] — resolved here, but nil when it
	// has none, which is an error only once its clock must be sampled —
	// and cands[candOff[i]:candOff[i+1]] are its transitions in successor
	// order.
	acts    []int32
	candOff []int32
	cands   []int32
	// on lists the state-reward clauses enabled in the state, ascending.
	on    []int32
	dists []dist.Distribution
	imm   []int32
	immW  []float64
}

// clock is the timing slot of one activity. Under enabling memory a clock
// survives exactly while its activity stays enabled from one timed step to
// the next without firing, so rem is live only when seen is the previous
// timed step; any other value means the clock must be sampled afresh.
type clock struct {
	rem  float64 // residual duration
	seen uint64  // the last timed step whose state enabled the activity; 0 once it fires
}

// runner executes replications of one configuration. Everything beyond
// the shared plan is mutable and private to one worker goroutine: the
// compiled model, the state interner, the state records, the
// per-transition arrays and the clocks.
type runner struct {
	*plan

	// c is the runner's own compiled model: it grows as states are
	// compiled, so it is never shared across workers. succ and succNext
	// are its Successors scratch.
	c        *elab.Compiled
	succ     []elab.Succ
	succNext []uint32

	// States are interned by their tuples; state s is keys.Tuple(s) and
	// recs[s] its record. State 0 is the initial state.
	keys *statespace.TupleTable
	n    int
	recs []stateRec

	// Per-transition arrays, indexed by transition number: the state id
	// of its target (interned when its source state compiles) and its
	// compiled label id. Pre-empted transitions of vanishing states are
	// never numbered.
	target []int32
	label  []int32

	// clocks is indexed by activity slot; epoch numbers the timed steps
	// from 1 and never restarts, so a replication begins by skipping one.
	clocks []clock
	epoch  uint64
}

// Run executes the experiment and returns the estimates.
func Run(cfg Config) (*Result, error) {
	if cfg.Model == nil {
		return nil, errors.New("sim: nil model")
	}
	if !(cfg.RunLength > 0) || math.IsInf(cfg.RunLength, 1) {
		return nil, fmt.Errorf("sim: RunLength must be positive and finite, got %v", cfg.RunLength)
	}
	// A negative warm-up would shorten the measured window while the
	// values are still normalized by RunLength.
	if !(cfg.Warmup >= 0) || math.IsInf(cfg.Warmup, 1) {
		return nil, fmt.Errorf("sim: Warmup must be non-negative and finite, got %v", cfg.Warmup)
	}
	if cfg.Batches < 0 {
		return nil, fmt.Errorf("sim: Batches must not be negative, got %d", cfg.Batches)
	}
	if cfg.Replications <= 0 {
		cfg.Replications = 30
	}
	if cfg.ConfidenceLevel == 0 {
		cfg.ConfidenceLevel = 0.90
	}
	// TQuantile falls back to 0.95 for an untabulated level, which would
	// label a 95% half-width with the requested level.
	if levels := stats.Levels(); !slices.Contains(levels, cfg.ConfidenceLevel) {
		return nil, fmt.Errorf("sim: ConfidenceLevel must be one of %v (0 selects 0.9), got %v", levels, cfg.ConfidenceLevel)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 50_000_000
	}

	p, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	r := p.newRunner()

	master := rng.New(cfg.Seed)
	accs := make([]stats.Accumulator, len(cfg.Measures))
	res := &Result{Estimates: make(map[string]stats.Interval, len(cfg.Measures))}
	if cfg.Batches > 0 {
		// Batch means: one long run, one observation per batch.
		segs, events, err := r.replicateGuarded(0, 0, master.Split(0), cfg.Batches)
		if err != nil {
			return nil, fmt.Errorf("sim: batch-means run: %w", err)
		}
		res.Events = events
		for _, vals := range segs {
			for i, v := range vals {
				accs[i].Add(v)
			}
		}
		res.Replications = cfg.Batches
	} else {
		vals, events, err := r.runReplications(master)
		if err != nil {
			return nil, err
		}
		res.Events = events
		// Merge in replication-index order: the accumulator then sees the
		// same observation sequence regardless of the worker count.
		for _, obs := range vals {
			for i, v := range obs {
				accs[i].Add(v)
			}
		}
		res.Replications = cfg.Replications
	}
	for i, m := range cfg.Measures {
		if m.Derived {
			continue
		}
		res.Estimates[m.Name] = accs[i].CI(cfg.ConfidenceLevel)
	}
	if _, err := measure.DeriveIntervals(cfg.Measures, res.Estimates); err != nil {
		return nil, err
	}
	return res, nil
}

// newPlan flattens the measure clauses of a configuration and resolves
// the duration overrides and transition-reward labels against the
// model's compiled action and label ids.
func newPlan(cfg Config) (*plan, error) {
	p := &plan{cfg: cfg}
	var transPreds []string
	for mi, m := range cfg.Measures {
		p.stateOf = append(p.stateOf, nil)
		p.transOf = append(p.transOf, nil)
		if m.Derived {
			continue // resolved from the base estimates after the runs
		}
		for _, cl := range m.Clauses {
			switch cl.Kind {
			case measure.StateReward:
				p.stateOf[mi] = append(p.stateOf[mi], len(p.statePreds))
				p.statePreds = append(p.statePreds, elab.Pred{Instance: cl.Instance, Action: cl.Action})
				p.stateVals = append(p.stateVals, cl.Value)
			case measure.TransReward:
				p.transOf[mi] = append(p.transOf[mi], len(transPreds))
				transPreds = append(transPreds, cl.Pred())
				p.transVals = append(p.transVals, cl.Value)
			default:
				return nil, fmt.Errorf("sim: measure %s: invalid clause kind", m.Name)
			}
		}
	}

	c := cfg.Model.Compile(nil)
	p.slotBase = make([]int32, c.NumInstances())
	for i := range p.slotBase {
		p.slotBase[i] = int32(len(p.acts))
		for a := range c.NumActions(i) {
			p.acts = append(p.acts, Activity{Instance: cfg.Model.InstanceName(i), Action: c.ActionName(i, int32(a))})
		}
	}
	p.overrides = make([]dist.Distribution, len(p.acts))
	var unknown []string
	for act, d := range cfg.Distributions {
		i, ok := cfg.Model.InstanceIndex(act.Instance)
		var a int32
		if ok {
			a, ok = c.ActionID(i, act.Action)
		}
		if !ok {
			unknown = append(unknown, act.Instance+"."+act.Action)
			continue
		}
		p.overrides[p.slotBase[i]+a] = d
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		return nil, fmt.Errorf("sim: distribution override for %s: no such activity in the model",
			strings.Join(unknown, ", "))
	}
	p.clOff = make([]int32, c.NumLabels()+1)
	for l := range c.NumLabels() {
		for j, pred := range transPreds {
			if lts.LabelInvolves(c.Label(int32(l)), pred) {
				p.clIdx = append(p.clIdx, int32(j))
			}
		}
		p.clOff[l+1] = int32(len(p.clIdx))
	}
	return p, nil
}

// newRunner returns a runner over the plan with its own compiled model
// and an empty memo holding only the initial state, for use by one
// goroutine (the compiled model, the interner and the records are
// single-writer, never shared across workers).
func (p *plan) newRunner() *runner {
	c := p.cfg.Model.Compile(p.statePreds)
	r := &runner{
		plan:   p,
		c:      c,
		keys:   statespace.NewTupleTable(c.NumInstances()),
		n:      c.NumInstances(),
		clocks: make([]clock, len(p.acts)),
	}
	r.visit(c.Initial())
	return r
}

// runReplications executes cfg.Replications independent runs — on a
// bounded worker pool when cfg.Workers > 1 — and returns the per-
// replication measure values in replication order. Replication i always
// draws from the split stream master.Split(i), so the values are
// bit-identical at any worker count; the pool stops handing out work
// after the first failure and the lowest-index error is reported, which
// is the error a sequential run would hit.
func (r *runner) runReplications(master *rng.Rand) ([][]float64, int64, error) {
	reps := r.cfg.Replications
	workers := r.cfg.Workers
	if workers > reps {
		workers = reps
	}
	out := make([][]float64, reps)
	if workers <= 1 {
		var events int64
		for rep := 0; rep < reps; rep++ {
			segs, ev, err := r.replicateGuarded(0, rep, master.Split(uint64(rep)), 1)
			if err != nil {
				return nil, events, fmt.Errorf("sim: replication %d: %w", rep, err)
			}
			events += ev
			out[rep] = segs[0]
		}
		return out, events, nil
	}

	// Split the streams up front, in index order: Split only reads the
	// master state, and replication i gets the same stream as sequentially.
	streams := make([]*rng.Rand, reps)
	for rep := range streams {
		streams[rep] = master.Split(uint64(rep))
	}
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		events atomic.Int64
		stop   atomic.Bool
		errs   = make([]error, reps)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wr := r.newRunner() // private memo per worker
			for {
				rep := int(next.Add(1)) - 1
				if rep >= reps || stop.Load() {
					return
				}
				segs, ev, err := wr.replicateGuarded(w, rep, streams[rep], 1)
				events.Add(ev)
				if err != nil {
					errs[rep] = err
					stop.Store(true)
					return
				}
				out[rep] = segs[0]
			}
		}(w)
	}
	wg.Wait()
	// Replications are claimed in index order, so every index below a
	// failed one has run: the first recorded error is the sequential one.
	for rep, err := range errs {
		if err != nil {
			return nil, events.Load(), fmt.Errorf("sim: replication %d: %w", rep, err)
		}
	}
	return out, events.Load(), nil
}

// visit returns the memo id of a state tuple, interning it (with a record
// that is not ready) on first sight.
func (r *runner) visit(t []uint32) int32 {
	id, fresh := r.keys.Intern(t)
	if fresh {
		r.recs = append(r.recs, stateRec{})
	}
	return int32(id)
}

// transition numbers successor k of the state being compiled and interns
// its target.
func (r *runner) transition(k int) int32 {
	t := int32(len(r.target))
	r.target = append(r.target, r.visit(r.succNext[k*r.n:(k+1)*r.n]))
	r.label = append(r.label, r.succ[k].Label)
	return t
}

// compile builds the record of state s from its compiled successors: the
// state-reward predicates, the top-priority immediate choice, and — in a
// timed state — the activities with their distributions and candidate
// transitions. Every transition that can fire is numbered, with its
// target interned. A runner whose compile failed is discarded with its
// run.
func (r *runner) compile(s int32) error {
	src := r.keys.Tuple(uint32(s))
	var err error
	r.succ, r.succNext, err = r.c.Successors(src, r.succ[:0], r.succNext[:0])
	if err != nil {
		return err
	}
	rec := stateRec{ready: true}
	for p := range r.statePreds {
		on, err := r.c.Enabled(p, src)
		if err != nil {
			return err
		}
		if on {
			rec.on = append(rec.on, int32(p))
		}
	}

	// rec.imm holds successor indices until the state is known vanishing.
	maxPrio := math.MinInt32
	for k := range r.succ {
		rt := r.succ[k].Rate
		if rt.Kind != rates.Immediate {
			continue
		}
		if rt.Priority > maxPrio {
			maxPrio, rec.immTotal = rt.Priority, 0
			rec.imm, rec.immW = rec.imm[:0], rec.immW[:0]
		}
		if rt.Priority == maxPrio {
			rec.immTotal += rt.Weight
			rec.imm = append(rec.imm, int32(k))
			rec.immW = append(rec.immW, rt.Weight)
		}
	}
	if rec.immTotal != 0 {
		// Vanishing: the top-priority immediate transitions pre-empt every
		// other one, which therefore never fires and is not numbered.
		for i, k := range rec.imm {
			rec.imm[i] = r.transition(int(k))
		}
		r.recs[s] = rec
		return nil
	}
	rec.imm, rec.immW = nil, nil

	actOf := make([]int32, len(r.succ)) // index into rec.acts per successor
	for k := range r.succ {
		sc := &r.succ[k]
		slot := r.slotBase[sc.ActiveInst] + sc.ActiveAction
		i := slices.Index(rec.acts, slot)
		if i < 0 {
			i = len(rec.acts)
			rec.acts = append(rec.acts, slot)
			d := r.overrides[slot]
			if d == nil && sc.Rate.Kind == rates.Exp {
				d = dist.NewExp(sc.Rate.Lambda)
			}
			rec.dists = append(rec.dists, d)
		}
		actOf[k] = int32(i)
	}

	// Group the transitions by activity, keeping successor order.
	rec.candOff = make([]int32, len(rec.acts)+1)
	for _, i := range actOf {
		rec.candOff[i+1]++
	}
	for i := range rec.acts {
		rec.candOff[i+1] += rec.candOff[i]
	}
	rec.cands = make([]int32, len(r.succ))
	fill := slices.Clone(rec.candOff[:len(rec.acts)])
	for k, i := range actOf {
		rec.cands[fill[i]] = r.transition(k)
		fill[i]++
	}
	r.recs[s] = rec
	return nil
}

// replicateGuarded runs one replication under a panic guard: a crash in
// the event loop (or an injected fault keyed by the replication index)
// surfaces as a *fault.WorkerPanicError attributed to this worker and
// replication instead of taking down the pool.
func (r *runner) replicateGuarded(w, rep int, rnd *rng.Rand, segments int) (segs [][]float64, ev int64, err error) {
	err = fault.Guard("sim", w, fmt.Sprintf("replication %d", rep), func() error {
		faultinject.MaybePanic(faultinject.SiteSimReplication, rep)
		var rerr error
		segs, ev, rerr = r.replicate(rep, rnd, segments)
		return rerr
	})
	if err != nil {
		return nil, ev, err
	}
	return segs, ev, nil
}

// pollEvents is the event-count stride between context polls of a
// replication's event loop: frequent enough that cancellation lands
// promptly, sparse enough that the poll never shows up in a profile.
const pollEvents = 1024

// replicate runs one run whose measurement window is split into the given
// number of consecutive segments (1 for independent replications, n for
// batch means) and returns the per-segment measure values (already
// normalized by the segment length). Segment k is the model-time interval
// [Warmup+k·RunLength, Warmup+(k+1)·RunLength). rep is the replication
// index, used only to attribute a cancellation.
func (r *runner) replicate(rep int, rnd *rng.Rand, segments int) ([][]float64, int64, error) {
	var (
		warmup, runLength = r.cfg.Warmup, r.cfg.RunLength

		now        float64
		events     int64
		endTime    = warmup + float64(segments)*runLength
		zeroStreak = 0
		cur        = int32(0)  // memo id of the current state; 0 is the initial one
		via        = int32(-1) // transition whose target becomes current at the loop top
		// seg is the segment holding max(now, Warmup) and segEnd its end:
		// the loop advances them as time passes, so no event divides.
		seg    = 0
		segEnd = warmup + runLength
	)
	maxEvents := int64(r.cfg.MaxEvents)
	// No clock was stamped at the step before this replication's first,
	// so none carries over from an earlier replication.
	r.epoch++
	stateAcc := make([][]float64, segments)
	transAcc := make([][]float64, segments)
	for k := range stateAcc {
		stateAcc[k] = make([]float64, len(r.stateVals))
		transAcc[k] = make([]float64, len(r.transVals))
	}

	// accrue credits the state's enabled state-reward clauses with the
	// part of [now, now+dt] inside [Warmup, endTime], split at segment
	// ends: each split moves to the next segment.
	accrue := func(rec *stateRec, dt float64) {
		if dt <= 0 || len(rec.on) == 0 {
			return
		}
		lo, hi := max(now, warmup), min(now+dt, endTime)
		k, end := seg, segEnd
		for lo < hi {
			w := min(hi, end) - lo
			acc := stateAcc[k]
			for _, i := range rec.on {
				acc[i] += r.stateVals[i] * w
			}
			lo += w
			if end < hi {
				k++
				end = warmup + float64(k+1)*runLength
			}
		}
	}
	countFiring := func(t int32) {
		l := r.label[t]
		lo, hi := r.clOff[l], r.clOff[l+1]
		if lo == hi || now < warmup {
			return
		}
		acc := transAcc[seg]
		for _, j := range r.clIdx[lo:hi] {
			acc[j] += r.transVals[j]
		}
	}

	for now < endTime {
		if events >= maxEvents {
			return nil, events, fmt.Errorf("sim: exceeded %d events", r.cfg.MaxEvents)
		}
		if events%pollEvents == 0 {
			if err := fault.Check(r.cfg.Ctx, "sim", rep, -1); err != nil {
				return nil, events, err
			}
		}
		if via >= 0 {
			cur = r.target[via]
		}
		if !r.recs[cur].ready {
			if err := r.compile(cur); err != nil {
				return nil, events, err
			}
		}
		rec := &r.recs[cur]

		// Immediate transitions pre-empt time.
		if rec.immTotal != 0 {
			zeroStreak++
			if zeroStreak > 1_000_000 {
				return nil, events, ErrImmediateLivelock
			}
			via = rec.pickImmediate(rnd)
			countFiring(via)
			events++
			continue
		}
		if len(rec.acts) == 0 {
			// Deadlock: the state persists until the horizon.
			accrue(rec, endTime-now)
			now = endTime
			break
		}

		// Timed step, in one pass over the state's activities: an activity
		// enabled at the previous timed step keeps its clock (enabling
		// memory), a newly enabled one samples it — first-occurrence order
		// fixes the draw order — and the minimum clock wins. An exact tie
		// goes to the activity first in (Instance, Action) name order —
		// never to the lower slot, since slots follow declaration order.
		// Clocks of activities the state does not enable are left stale.
		prev := r.epoch
		r.epoch++
		win, minRem := 0, 0.0
		for i, a := range rec.acts {
			c := &r.clocks[a]
			if c.seen != prev {
				d := rec.dists[i]
				if d == nil {
					act, first := r.acts[a], rec.cands[rec.candOff[i]]
					return nil, events, fmt.Errorf("%w: %s.%s (label %s)",
						ErrNoDistribution, act.Instance, act.Action, r.c.Label(r.label[first]))
				}
				c.rem = d.Sample(rnd)
			}
			c.seen = r.epoch
			if i == 0 || c.rem < minRem || (c.rem == minRem && less(r.acts[a], r.acts[rec.acts[win]])) {
				win, minRem = i, c.rem
			}
		}

		dt := minRem
		if dt > 0 {
			zeroStreak = 0
		} else {
			zeroStreak++
			if zeroStreak > 1_000_000 {
				return nil, events, ErrImmediateLivelock
			}
		}
		if now+dt >= endTime {
			accrue(rec, endTime-now)
			now = endTime
			break
		}
		accrue(rec, dt)
		for _, a := range rec.acts {
			r.clocks[a].rem -= dt
		}
		r.clocks[rec.acts[win]].seen = 0 // the winner's clock is spent
		now += dt
		for now >= segEnd {
			seg++
			segEnd = warmup + float64(seg+1)*runLength
		}

		// Choose uniformly among the winner's transitions (usually one).
		cands := rec.cands[rec.candOff[win]:rec.candOff[win+1]]
		via = cands[0]
		if len(cands) > 1 {
			via = cands[rnd.Intn(len(cands))]
		}
		countFiring(via)
		events++
	}

	// Normalize by the segment length.
	out := make([][]float64, segments)
	for k := 0; k < segments; k++ {
		vals := make([]float64, len(r.cfg.Measures))
		for mi := range r.cfg.Measures {
			v := 0.0
			for _, i := range r.stateOf[mi] {
				v += stateAcc[k][i] / runLength
			}
			for _, i := range r.transOf[mi] {
				v += transAcc[k][i] / runLength
			}
			vals[mi] = v
		}
		out[k] = vals
	}
	return out, events, nil
}

// pickImmediate selects one of the state's top-priority immediate
// transitions by weight.
func (rec *stateRec) pickImmediate(rnd *rng.Rand) int32 {
	u := rnd.Float64() * rec.immTotal
	acc := 0.0
	for i, w := range rec.immW {
		acc += w
		if u < acc {
			return rec.imm[i]
		}
	}
	return rec.imm[len(rec.imm)-1]
}

// less gives activities a total order for deterministic tie-breaking.
func less(a, b Activity) bool {
	if a.Instance != b.Instance {
		return a.Instance < b.Instance
	}
	return a.Action < b.Action
}

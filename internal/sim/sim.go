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
	// ConfidenceLevel for the reported intervals (default 0.90).
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

// plan is the read-only part of a runner: the configuration and the
// flattened measure clauses, shared by the runners of one Run.
type plan struct {
	cfg   Config
	model *elab.Model

	// Flattened clauses: the state-reward clauses (checked per state at
	// compile time), and the "Instance.Action" predicate (matched per
	// transition at compile time) and value of each transition-reward
	// clause.
	stateClauses []measure.Clause
	transPreds   []string
	transVals    []float64
	// stateOf[m] and transOf[m] list the flattened clauses of measure m.
	stateOf [][]int
	transOf [][]int
}

// stateRec is the compiled form of a visited state, built once when the
// state is first entered. Every later event in the state touches only
// integers and float slices: no label, activity name or state key is
// hashed on the hot path. Transitions are numbered by the runner's
// per-transition arrays.
type stateRec struct {
	// preds is the local enabledness per state-reward clause.
	preds []bool
	// imm lists the immediate transitions of the top priority level, in
	// successor order, and immW their weights; a nonzero immTotal (their
	// sum) makes the state vanishing.
	imm      []int32
	immW     []float64
	immTotal float64
	// In a timed state (immTotal == 0), acts are the activity ids of the
	// state's transitions in first-occurrence order (empty: deadlock);
	// vanishing states leave the activity fields empty. dists[i] is the
	// duration distribution of acts[i] — resolved here, but nil when it
	// has none, which is an error only once its clock must be sampled;
	// labels[i] is its first-occurrence label, for that error's message;
	// and cands[candOff[i]:candOff[i+1]] are its transitions in successor
	// order.
	acts    []int32
	dists   []dist.Distribution
	labels  []string
	candOff []int32
	cands   []int32
}

// clock is the timing slot of one activity id.
type clock struct {
	rem  float64 // residual duration, valid while on
	on   bool    // the activity holds a clock (enabling memory)
	seen uint64  // the last timed step whose state enabled the activity
}

// runner executes replications of one configuration. Everything beyond
// the shared plan is mutable and private to one worker goroutine: the
// state interner, the compiled state records, the activity table, the
// per-transition arrays and the clocks.
type runner struct {
	*plan

	// Visited states are interned into an arena; the compiled records are
	// indexed by the resulting dense id.
	intern *statespace.Interner
	keyBuf []byte
	recs   []stateRec

	// Activity table: dense ids in discovery order. actID is consulted
	// only when a state is compiled; acts names an id for the exact-tie
	// tie-break.
	actID map[Activity]int32
	acts  []Activity

	// Per-transition arrays, indexed by transition number. next is the
	// memo id of the target, -1 until the transition first fires; until
	// then pending holds the target state, released once resolved (nil
	// from the start for a transition that can never fire). The
	// transition-reward clauses the transition counts toward are
	// clauseIdx[clauseOff[t]:clauseOff[t+1]].
	next      []int32
	pending   []elab.State
	clauseOff []int32
	clauseIdx []int32

	// clocks is indexed by activity id; epoch numbers the timed steps.
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

// newPlan flattens the measure clauses of a configuration.
func newPlan(cfg Config) (*plan, error) {
	p := &plan{cfg: cfg, model: cfg.Model}
	for mi, m := range cfg.Measures {
		p.stateOf = append(p.stateOf, nil)
		p.transOf = append(p.transOf, nil)
		if m.Derived {
			continue // resolved from the base estimates after the runs
		}
		for _, cl := range m.Clauses {
			switch cl.Kind {
			case measure.StateReward:
				p.stateOf[mi] = append(p.stateOf[mi], len(p.stateClauses))
				p.stateClauses = append(p.stateClauses, cl)
			case measure.TransReward:
				p.transOf[mi] = append(p.transOf[mi], len(p.transPreds))
				p.transPreds = append(p.transPreds, cl.Pred())
				p.transVals = append(p.transVals, cl.Value)
			default:
				return nil, fmt.Errorf("sim: measure %s: invalid clause kind", m.Name)
			}
		}
	}
	return p, nil
}

// newRunner returns a runner over the plan with an empty memo, for use by
// one goroutine (the interner and the records are single-writer, never
// shared across workers).
func (p *plan) newRunner() *runner {
	return &runner{
		plan:      p,
		intern:    statespace.NewInterner(),
		actID:     make(map[Activity]int32),
		clauseOff: []int32{0},
	}
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

// visit returns the memo id of a state, compiling its record on the first
// visit. A runner whose compile failed is discarded with its run.
func (r *runner) visit(s elab.State) (int32, error) {
	r.keyBuf = r.model.AppendKey(r.keyBuf[:0], s)
	id, _ := r.intern.Intern(r.keyBuf)
	if int(id) < len(r.recs) {
		return int32(id), nil
	}
	rec, err := r.compile(s)
	if err != nil {
		return -1, err
	}
	r.recs = append(r.recs, rec)
	return int32(id), nil
}

// successor returns the memo id of transition t's target. The first firing
// resolves it and releases the target state; later firings read one int.
func (r *runner) successor(t int32) (int32, error) {
	if id := r.next[t]; id >= 0 {
		return id, nil
	}
	id, err := r.visit(r.pending[t])
	if err != nil {
		return -1, err
	}
	r.next[t], r.pending[t] = id, nil
	return id, nil
}

// compile builds the record of a state from its successors: the state-
// reward predicates, the top-priority immediate choice, for every
// transition its transition-reward clauses and its (unresolved) target,
// and — in a timed state — the activities with their distributions and
// candidate transitions.
func (r *runner) compile(s elab.State) (stateRec, error) {
	succ, err := r.model.Successors(s)
	if err != nil {
		return stateRec{}, err
	}
	var rec stateRec
	if len(r.stateClauses) > 0 {
		rec.preds = make([]bool, len(r.stateClauses))
		for i, cl := range r.stateClauses {
			ok, err := r.model.LocallyEnabled(s, cl.Instance, cl.Action)
			if err != nil {
				return stateRec{}, err
			}
			rec.preds[i] = ok
		}
	}

	base := int32(len(r.next))
	maxPrio := math.MinInt32
	for i := range succ {
		tr := &succ[i]
		t := base + int32(i)
		r.next = append(r.next, -1)
		r.pending = append(r.pending, tr.Next)
		for j, pred := range r.transPreds {
			if lts.LabelInvolves(tr.Label, pred) {
				r.clauseIdx = append(r.clauseIdx, int32(j))
			}
		}
		r.clauseOff = append(r.clauseOff, int32(len(r.clauseIdx)))

		if tr.Rate.Kind == rates.Immediate {
			if tr.Rate.Priority > maxPrio {
				maxPrio, rec.immTotal = tr.Rate.Priority, 0
				rec.imm, rec.immW = rec.imm[:0], rec.immW[:0]
			}
			if tr.Rate.Priority == maxPrio {
				rec.immTotal += tr.Rate.Weight
				rec.imm = append(rec.imm, t)
				rec.immW = append(rec.immW, tr.Rate.Weight)
			}
		}
	}
	if rec.immTotal != 0 {
		// Vanishing: the top-priority immediate transitions pre-empt every
		// other one, which therefore never fires; release its target now.
		for i := range succ {
			if t := base + int32(i); !slices.Contains(rec.imm, t) {
				r.pending[t] = nil
			}
		}
		return rec, nil
	}

	actOf := make([]int32, len(succ)) // index into rec.acts per transition
	for i := range succ {
		tr := &succ[i]
		act := Activity{Instance: r.model.InstanceName(tr.ActiveInst), Action: tr.ActiveAction}
		id := r.activity(act)
		k := slices.Index(rec.acts, id)
		if k < 0 {
			k = len(rec.acts)
			rec.acts = append(rec.acts, id)
			rec.dists = append(rec.dists, r.distributionFor(act, tr.Rate))
			rec.labels = append(rec.labels, tr.Label)
		}
		actOf[i] = int32(k)
	}

	// Group the transitions by activity, keeping successor order.
	rec.candOff = make([]int32, len(rec.acts)+1)
	for _, k := range actOf {
		rec.candOff[k+1]++
	}
	for k := range rec.acts {
		rec.candOff[k+1] += rec.candOff[k]
	}
	rec.cands = make([]int32, len(succ))
	fill := slices.Clone(rec.candOff[:len(rec.acts)])
	for i, k := range actOf {
		rec.cands[fill[k]] = base + int32(i)
		fill[k]++
	}
	return rec, nil
}

// activity returns the dense id of an activity, assigning the next one on
// its first occurrence.
func (r *runner) activity(act Activity) int32 {
	if id, ok := r.actID[act]; ok {
		return id
	}
	id := int32(len(r.acts))
	r.actID[act] = id
	r.acts = append(r.acts, act)
	r.clocks = append(r.clocks, clock{})
	return id
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
// normalized by the segment length). rep is the replication index, used
// only to attribute a cancellation.
func (r *runner) replicate(rep int, rnd *rng.Rand, segments int) ([][]float64, int64, error) {
	var (
		now        float64
		events     int64
		endTime    = r.cfg.Warmup + float64(segments)*r.cfg.RunLength
		zeroStreak = 0
		cur        = int32(-1) // memo id of the current state; -1 before the initial one
		via        = int32(-1) // transition whose target becomes current at the loop top
		active     []int32     // the last timed state's activities: all that may hold a clock
	)
	for i := range r.clocks {
		r.clocks[i].on = false
	}
	stateAcc := make([][]float64, segments)
	transAcc := make([][]float64, segments)
	for k := range stateAcc {
		stateAcc[k] = make([]float64, len(r.stateClauses))
		transAcc[k] = make([]float64, len(r.transVals))
	}
	segOf := func(t float64) int {
		k := int((t - r.cfg.Warmup) / r.cfg.RunLength)
		if k < 0 {
			k = 0
		}
		if k >= segments {
			k = segments - 1
		}
		return k
	}

	accrue := func(rec *stateRec, dt float64) {
		if dt <= 0 || len(r.stateClauses) == 0 {
			return
		}
		// Clip the accrual window to [Warmup, endTime] and split it over
		// the segments it spans.
		lo := math.Max(now, r.cfg.Warmup)
		hi := math.Min(now+dt, endTime)
		for lo < hi {
			k := segOf(lo)
			segEnd := r.cfg.Warmup + float64(k+1)*r.cfg.RunLength
			w := math.Min(hi, segEnd) - lo
			if w <= 0 {
				break
			}
			for i := range r.stateClauses {
				if rec.preds[i] {
					stateAcc[k][i] += r.stateClauses[i].Value * w
				}
			}
			lo += w
		}
	}
	countFiring := func(t int32) {
		lo, hi := r.clauseOff[t], r.clauseOff[t+1]
		if now < r.cfg.Warmup || lo == hi {
			return
		}
		acc := transAcc[segOf(now)]
		for _, j := range r.clauseIdx[lo:hi] {
			acc[j] += r.transVals[j]
		}
	}

	for now < endTime {
		if events >= int64(r.cfg.MaxEvents) {
			return nil, events, fmt.Errorf("sim: exceeded %d events", r.cfg.MaxEvents)
		}
		if events%pollEvents == 0 {
			if err := fault.Check(r.cfg.Ctx, "sim", rep, -1); err != nil {
				return nil, events, err
			}
		}
		var err error
		if via >= 0 {
			cur, err = r.successor(via)
		} else if cur < 0 {
			cur, err = r.visit(r.model.Initial())
		}
		if err != nil {
			return nil, events, err
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

		// Timed step. Enabling memory: activities the state does not enable
		// lose their clock; newly enabled ones sample theirs in first-
		// occurrence order.
		r.epoch++
		for _, a := range rec.acts {
			r.clocks[a].seen = r.epoch
		}
		for _, a := range active {
			if r.clocks[a].seen != r.epoch {
				r.clocks[a].on = false
			}
		}
		for i, a := range rec.acts {
			c := &r.clocks[a]
			if c.on {
				continue
			}
			d := rec.dists[i]
			if d == nil {
				act := r.acts[a]
				return nil, events, fmt.Errorf("%w: %s.%s (label %s)",
					ErrNoDistribution, act.Instance, act.Action, rec.labels[i])
			}
			c.rem, c.on = d.Sample(rnd), true
		}
		active = rec.acts

		// Fire the minimum clock; an exact tie goes to the activity first
		// in (Instance, Action) name order — never to the lower id, since
		// ids follow discovery order.
		win := 0
		minRem := r.clocks[rec.acts[0]].rem
		for i := 1; i < len(rec.acts); i++ {
			a := rec.acts[i]
			rem := r.clocks[a].rem
			if rem < minRem || (rem == minRem && less(r.acts[a], r.acts[rec.acts[win]])) {
				win, minRem = i, rem
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
		r.clocks[rec.acts[win]].on = false
		now += dt

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
	T := r.cfg.RunLength
	out := make([][]float64, segments)
	for k := 0; k < segments; k++ {
		vals := make([]float64, len(r.cfg.Measures))
		for mi := range r.cfg.Measures {
			v := 0.0
			for _, i := range r.stateOf[mi] {
				v += stateAcc[k][i] / T
			}
			for _, i := range r.transOf[mi] {
				v += transAcc[k][i] / T
			}
			vals[mi] = v
		}
		out[k] = vals
	}
	return out, events, nil
}

// distributionFor resolves the duration distribution of an activity: its
// override, else the exponential of its rate, else nil.
func (r *runner) distributionFor(act Activity, rate rates.Rate) dist.Distribution {
	if d, ok := r.cfg.Distributions[act]; ok {
		return d
	}
	if rate.Kind == rates.Exp {
		return dist.NewExp(rate.Lambda)
	}
	return nil
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

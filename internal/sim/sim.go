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
// confidence intervals. The event loop only keeps time: a sojourn adds its
// length to the occupancy of its state's reward class (the set of
// state-reward clauses the state enables), a firing adds one to its
// label's count, and the clause values weight both once per replication.
package sim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

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
	// RunLength is the measured model-time horizon per replication.
	RunLength float64
	// Warmup is discarded model time before measurement starts.
	Warmup float64
	// Replications is the number of independent runs (default 30, the
	// paper's choice). Run rejects 1 and negative counts: an interval
	// needs at least two runs.
	Replications int
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
	// any worker count.
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

// recPageBits sizes the pages that hold the state records: 1<<recPageBits
// records each.
const recPageBits = 8

// recPage is one page of state records. A page never moves once
// allocated, so a record pointer stays valid while later states are
// interned.
type recPage [1 << recPageBits]stateRec

// stateRec is the compiled form of a visited state, built once when the
// state is first entered. Every later event in the state touches only
// integers and float slices: no label, activity name or state key is
// hashed on the hot path. Transitions are numbered by the runner's
// transition records; a record whose state has been interned (as a
// transition target) but not yet entered is not ready. The lists are
// carved from the runner's arenas and never grow.
type stateRec struct {
	// The fields every event reads come first, so that a timed step finds
	// ready, class, immTotal, acts and candOff in the record's first 64
	// bytes.
	ready bool
	// class is the state's reward class, a runner-local id.
	class int32
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
	dists   []dist.Distribution
	imm     []int32
	immW    []float64
}

// transRec is the hot record of one numbered transition: everything a
// firing reads about it.
type transRec struct {
	// target is the state id of the transition's target, interned when
	// its source state compiles.
	target int32
	// next1 links a target that is a one-way vanishing state — a single
	// top-priority immediate transition — to that transition, so the
	// event loop fires it without entering the state; -1 until the first
	// step through this transition finds the target one-way, and forever
	// if it is not.
	next1 int32
	// label is the transition's compiled label id: a firing counts toward
	// it.
	label int32
}

// rewardClass is a set of state-reward clauses that some state enables
// together. Sojourns in all of its states add to one occupancy.
type rewardClass struct {
	// key has bit i%8 of byte i/8 set for each clause i in the set.
	key string
	// on lists the clauses, ascending.
	on []int32
}

// compareKeys is the canonical order of reward classes: by their clause
// sets read as binary numbers with clause i worth 2^i. It does not depend
// on the order in which a runner met the classes.
func compareKeys(a, b string) int {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return cmp.Compare(a[i], b[i])
		}
	}
	return 0
}

// arena hands out slices carved from chunks it owns. A carved slice has
// capacity equal to its length and is never handed out again, so records
// that hold carved slices never share or move their lists; each new
// chunk doubles the last, so a runner allocates a few chunks, not a few
// slices per state.
type arena[T any] struct {
	free []T // the uncarved rest of the current chunk
	size int // the current chunk's length
}

// take returns n zero elements.
func (a *arena[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if len(a.free) < n {
		a.size = max(2*a.size, 256, n)
		a.free = make([]T, a.size)
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// clone returns a carved copy of src.
func (a *arena[T]) clone(src []T) []T {
	s := a.take(len(src))
	copy(s, src)
	return s
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
// compiled model, the state interner, the state and transition records
// and the clocks.
type runner struct {
	*plan

	// c is the runner's own compiled model: it grows as states are
	// compiled, so it is never shared across workers. succ and succNext
	// are its Successors scratch.
	c        *elab.Compiled
	succ     []elab.Succ
	succNext []uint32

	// States are interned by their tuples; state s is keys.Tuple(s) and
	// rec(s) its record. State 0 is the initial state. The records' lists
	// are carved from ints, floats and dists; scr is compile's scratch.
	keys   *statespace.TupleTable
	n      int
	pages  []*recPage
	ints   arena[int32]
	floats arena[float64]
	dists  arena[dist.Distribution]
	exps   []dist.Distribution // exps[id]: the exponential of rate id, or nil
	scr    struct {
		acts, actOf, fill, imm, on []int32
		dists                      []dist.Distribution
		immW                       []float64
		key                        []byte
	}

	// trans holds each numbered transition's hot record. Pre-empted
	// transitions of vanishing states are never numbered.
	trans []transRec

	// Reward classes are interned by their keys as states compile:
	// classes[c] is class c, order lists the class ids in the canonical
	// order (compareKeys), and occ[c] is the replication's occupancy of
	// class c — the measured time spent in its states.
	classOf map[string]int32
	classes []rewardClass
	order   []int32
	occ     []float64

	// fired[l] counts the replication's measured firings with compiled
	// label l. stateAcc and transN are the per-clause totals.
	fired    []int64
	stateAcc []float64
	transN   []int64

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
	// One replication has no sample variance, so its interval would
	// claim a zero half-width.
	if cfg.Replications == 1 || cfg.Replications < 0 {
		return nil, fmt.Errorf("sim: Replications must be at least 2 (0 selects 30), got %d", cfg.Replications)
	}
	if cfg.Replications == 0 {
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
	obs, events, err := p.runAll()
	if err != nil {
		return nil, err
	}
	// Merge in run order: the accumulator then sees the same observation
	// sequence regardless of the worker count.
	accs := make([]stats.Accumulator, len(cfg.Measures))
	res := &Result{Estimates: make(map[string]stats.Interval, len(cfg.Measures)), Events: events}
	for _, vals := range obs {
		for i, v := range vals {
			accs[i].Add(v)
		}
		res.Replications++
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
		plan:     p,
		c:        c,
		keys:     statespace.NewTupleTable(c.NumInstances()),
		n:        c.NumInstances(),
		classOf:  map[string]int32{},
		fired:    make([]int64, len(p.clOff)-1),
		stateAcc: make([]float64, len(p.stateVals)),
		transN:   make([]int64, len(p.transVals)),
		clocks:   make([]clock, len(p.acts)),
	}
	r.visit(c.Initial())
	return r
}

// runAll executes the cfg.Replications independent runs on fault.Pool
// and returns each run's measure values in run order. Run i always draws
// from the split stream Split(i) of the master stream, so the values are
// bit-identical at any worker count, and a failure is the lowest-index
// one, the error a sequential loop would hit. Each worker builds its runner in its own
// first task, and each task splits its own stream, on the worker's
// goroutine: state the caller allocated side by side would put two
// workers' hot fields, the runners' and the generators', on one cache
// line.
func (p *plan) runAll() ([][]float64, int64, error) {
	runs := p.cfg.Replications
	master := rng.New(p.cfg.Seed)
	runners := make([]*runner, max(1, min(p.cfg.Workers, runs)))
	obs := make([][]float64, runs)
	events := make([]int64, runs)
	failed, err := fault.Pool("sim", runs, len(runners),
		func(i int) string { return fmt.Sprintf("replication %d", i) },
		func(w, i int) (err error) {
			if runners[w] == nil {
				runners[w] = p.newRunner()
			}
			faultinject.MaybePanic(faultinject.SiteSimReplication, i)
			obs[i], events[i], err = runners[w].replicate(i, master.Split(uint64(i)))
			return err
		})
	if err != nil {
		return nil, 0, fmt.Errorf("sim: replication %d: %w", failed, err)
	}
	var total int64
	for _, ev := range events {
		total += ev
	}
	return obs, total, nil
}

// visit returns the memo id of a state tuple, interning it (with a record
// that is not ready) on first sight. Ids are dense from 0, so a fresh id
// that starts a page adds the page.
func (r *runner) visit(t []uint32) int32 {
	id, fresh := r.keys.Intern(t)
	if fresh && id%(1<<recPageBits) == 0 {
		r.pages = append(r.pages, new(recPage))
	}
	return int32(id)
}

// rec returns the record of state s.
func (r *runner) rec(s int32) *stateRec {
	return &r.pages[s>>recPageBits][s&(1<<recPageBits-1)]
}

// transition numbers successor k of the state being compiled and interns
// its target.
func (r *runner) transition(k int) int32 {
	t := int32(len(r.trans))
	r.trans = append(r.trans, transRec{
		target: r.visit(r.succNext[k*r.n : (k+1)*r.n]),
		next1:  -1,
		label:  r.succ[k].Label,
	})
	return t
}

// exp returns the exponential distribution of rate id, boxed once per
// runner rather than once per state that enables it.
func (r *runner) exp(id int32, lambda float64) dist.Distribution {
	if int(id) >= len(r.exps) {
		r.exps = append(r.exps, make([]dist.Distribution, int(id)+1-len(r.exps))...)
	}
	if r.exps[id] == nil {
		r.exps[id] = dist.NewExp(lambda)
	}
	return r.exps[id]
}

// class returns the reward class of state tuple src, interning it on
// first sight.
func (r *runner) class(src []uint32) (int32, error) {
	key, on := r.scr.key[:0], r.scr.on[:0]
	for i := range r.statePreds {
		if i%8 == 0 {
			key = append(key, 0)
		}
		enabled, err := r.c.Enabled(i, src)
		if err != nil {
			return 0, err
		}
		if enabled {
			key[i/8] |= 1 << (i % 8)
			on = append(on, int32(i))
		}
	}
	r.scr.key, r.scr.on = key, on
	if c, ok := r.classOf[string(key)]; ok {
		return c, nil
	}
	c := int32(len(r.classes))
	rc := rewardClass{key: string(key), on: r.ints.clone(on)}
	r.classOf[rc.key] = c
	r.classes = append(r.classes, rc)
	r.occ = append(r.occ, 0)
	at, _ := slices.BinarySearchFunc(r.order, rc.key, func(o int32, key string) int {
		return compareKeys(r.classes[o].key, key)
	})
	r.order = slices.Insert(r.order, at, c)
	return c, nil
}

// compile builds the record of state s from its compiled successors: the
// reward class, the top-priority immediate choice, and — in a timed
// state — the activities with their distributions and candidate
// transitions. Every transition that can fire is numbered, with its
// target interned; interning never moves the record. A runner whose
// compile failed is discarded with its run.
func (r *runner) compile(s int32) error {
	rec, src := r.rec(s), r.keys.Tuple(uint32(s))
	var err error
	r.succ, r.succNext, err = r.c.Successors(src, r.succ[:0], r.succNext[:0])
	if err != nil {
		return err
	}
	if rec.class, err = r.class(src); err != nil {
		return err
	}

	// imm holds the successor indices of the top priority level.
	maxPrio, total := math.MinInt32, 0.0
	imm, immW := r.scr.imm[:0], r.scr.immW[:0]
	for k := range r.succ {
		rt := r.c.Rate(r.succ[k].Rate)
		if rt.Kind != rates.Immediate {
			continue
		}
		if rt.Priority > maxPrio {
			maxPrio, total = rt.Priority, 0
			imm, immW = imm[:0], immW[:0]
		}
		if rt.Priority == maxPrio {
			total += rt.Weight
			imm = append(imm, int32(k))
			immW = append(immW, rt.Weight)
		}
	}
	r.scr.imm, r.scr.immW = imm, immW
	if total != 0 {
		// Vanishing: the top-priority immediate transitions pre-empt every
		// other one, which therefore never fires and is not numbered.
		rec.imm = r.ints.take(len(imm))
		for i, k := range imm {
			rec.imm[i] = r.transition(int(k))
		}
		rec.immW, rec.immTotal = r.floats.clone(immW), total
		rec.ready = true
		return nil
	}

	// actOf[k] indexes acts for successor k.
	acts, dists, actOf := r.scr.acts[:0], r.scr.dists[:0], r.scr.actOf[:0]
	for k := range r.succ {
		sc := &r.succ[k]
		slot := r.slotBase[sc.ActiveInst] + sc.ActiveAction
		i := slices.Index(acts, slot)
		if i < 0 {
			i = len(acts)
			acts = append(acts, slot)
			d := r.overrides[slot]
			if rt := r.c.Rate(sc.Rate); d == nil && rt.Kind == rates.Exp {
				d = r.exp(sc.Rate, rt.Lambda)
			}
			dists = append(dists, d)
		}
		actOf = append(actOf, int32(i))
	}
	r.scr.acts, r.scr.dists, r.scr.actOf = acts, dists, actOf
	rec.acts, rec.dists = r.ints.clone(acts), r.dists.clone(dists)

	// Group the transitions by activity, keeping successor order.
	rec.candOff = r.ints.take(len(acts) + 1)
	for _, i := range actOf {
		rec.candOff[i+1]++
	}
	for i := range acts {
		rec.candOff[i+1] += rec.candOff[i]
	}
	rec.cands = r.ints.take(len(r.succ))
	fill := append(r.scr.fill[:0], rec.candOff[:len(acts)]...)
	for k, i := range actOf {
		rec.cands[fill[i]] = r.transition(k)
		fill[i]++
	}
	r.scr.fill = fill
	rec.ready = true
	return nil
}

// pollEvents is the least event count between context polls of a
// replication's event loop: frequent enough that cancellation lands
// promptly, sparse enough that the poll never shows up in a profile. A
// poll waits for the loop top, so the gap can exceed it by one step and
// its link walk.
const pollEvents = 1024

// replicate runs one replication and returns its measure values,
// normalized by the length of its measurement window
// [Warmup, Warmup+RunLength). rep is the replication index, used only to
// attribute a cancellation.
func (r *runner) replicate(rep int, rnd *rng.Rand) ([]float64, int64, error) {
	var (
		warmup, runLength = r.cfg.Warmup, r.cfg.RunLength

		now        float64
		events     int64
		endTime    = warmup + runLength
		zeroStreak = 0
		nextPoll   int64       // the event count at which the context is next polled
		lastDt     float64     // the previous timed step's sojourn, not yet off the clocks it kept
		cur        = int32(0)  // memo id of the current state; 0 is the initial one
		via        = int32(-1) // transition whose target becomes current at the loop top
	)
	maxEvents := int64(r.cfg.MaxEvents)
	// No clock was stamped at the step before this replication's first,
	// so none carries over from an earlier replication.
	r.epoch++
	clear(r.occ)
	clear(r.fired)

	// accrue credits the state's reward class with the part of
	// [now, now+dt] inside the measurement window.
	accrue := func(rec *stateRec, dt float64) {
		if w := min(now+dt, endTime) - max(now, warmup); w > 0 {
			r.occ[rec.class] += w
		}
	}
	// countFiring counts a measured firing toward its label.
	countFiring := func(tr *transRec) {
		if now >= warmup {
			r.fired[tr.label]++
		}
	}

	for now < endTime {
		if events >= maxEvents {
			return nil, events, fmt.Errorf("sim: exceeded %d events", r.cfg.MaxEvents)
		}
		if events >= nextPoll {
			if err := fault.Check(r.cfg.Ctx, "sim", rep, -1); err != nil {
				return nil, events, err
			}
			nextPoll = events + pollEvents
		}
		if via >= 0 {
			cur = r.trans[via].target
		}
		rec := r.rec(cur)
		if !rec.ready {
			if err := r.compile(cur); err != nil {
				return nil, events, err
			}
		}

		if rec.immTotal != 0 {
			// Immediate transitions pre-empt time. A one-way state is
			// linked from the transition that entered it, so that the link
			// walk below takes every later visit.
			if via >= 0 && len(rec.imm) == 1 {
				r.trans[via].next1 = rec.imm[0]
			}
			zeroStreak++
			if zeroStreak > 1_000_000 {
				return nil, events, ErrImmediateLivelock
			}
			// A forced pick spends no draw.
			if via = rec.imm[0]; len(rec.imm) > 1 {
				via = rec.pickImmediate(rnd.Float64() * rec.immTotal)
			}
		} else {
			if len(rec.acts) == 0 {
				// Deadlock: the state persists until the horizon.
				accrue(rec, endTime-now)
				now = endTime
				break
			}

			// Timed step, in one pass over the state's activities: an
			// activity enabled at the previous timed step keeps its clock
			// (enabling memory), less that step's sojourn, a newly enabled
			// one samples it — first-occurrence order fixes the draw order —
			// and the minimum clock wins. An exact tie goes to the activity
			// first in (Instance, Action) name order — never to the lower
			// slot, since slots follow declaration order. Clocks of
			// activities the state does not enable are left stale.
			prev := r.epoch
			r.epoch++
			win, minRem := 0, 0.0
			for i, a := range rec.acts {
				c := &r.clocks[a]
				if c.seen == prev {
					c.rem -= lastDt
				} else {
					d := rec.dists[i]
					if d == nil {
						act, first := r.acts[a], rec.cands[rec.candOff[i]]
						return nil, events, fmt.Errorf("%w: %s.%s (label %s)",
							ErrNoDistribution, act.Instance, act.Action, r.c.Label(r.trans[first].label))
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
			// Taking dt off the running clocks waits for the next timed
			// step, which reads exactly those the next state keeps.
			lastDt = dt
			r.clocks[rec.acts[win]].seen = 0 // the winner's clock is spent
			now += dt

			// Choose uniformly among the winner's transitions (usually one).
			cands := rec.cands[rec.candOff[win]:rec.candOff[win+1]]
			via = cands[0]
			if len(cands) > 1 {
				via = cands[rnd.Intn(len(cands))]
			}
		}
		tr := &r.trans[via]
		countFiring(tr)
		events++

		// Link walk: while the step lands on a one-way vanishing state,
		// fire its one immediate transition without entering it. Each link
		// is the zero-time step the loop top would take there — the same
		// livelock bound, no draw for its forced pick, the same firing
		// count — so the run is bit-identical to one without links. A walk
		// that reaches MaxEvents stops for the loop top to report it.
		for tr.next1 >= 0 && events < maxEvents {
			zeroStreak++
			if zeroStreak > 1_000_000 {
				return nil, events, ErrImmediateLivelock
			}
			via = tr.next1
			tr = &r.trans[via]
			countFiring(tr)
			events++
		}
	}

	// Weight the occupancies and counts by the clause values. A state
	// clause sums its classes in canonical order, so its total does not
	// depend on the class ids this runner happened to assign; a
	// transition clause's count is an exact integer sum. The products are
	// rounded on their own, never fused into the sums.
	clear(r.stateAcc)
	for _, c := range r.order {
		t := r.occ[c]
		for _, i := range r.classes[c].on {
			r.stateAcc[i] += float64(r.stateVals[i] * t)
		}
	}
	clear(r.transN)
	for l, n := range r.fired {
		for _, j := range r.clIdx[r.clOff[l]:r.clOff[l+1]] {
			r.transN[j] += n
		}
	}

	// Normalize by the window length.
	vals := make([]float64, len(r.cfg.Measures))
	for mi := range r.cfg.Measures {
		v := 0.0
		for _, i := range r.stateOf[mi] {
			v += r.stateAcc[i] / runLength
		}
		for _, j := range r.transOf[mi] {
			v += float64(r.transVals[j]*float64(r.transN[j])) / runLength
		}
		vals[mi] = v
	}
	return vals, events, nil
}

// pickImmediate selects one of the state's top-priority immediate
// transitions by weight, given u uniform on [0, immTotal). The caller
// draws u so that this scan stays within the inlining budget.
func (rec *stateRec) pickImmediate(u float64) int32 {
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

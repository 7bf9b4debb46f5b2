// Package faultinject injects deterministic faults into the pipeline for
// testing its fault-tolerance layer. A Plan arms (site, key) triggers —
// panic in a generation worker at state 17 or at sweep point 3, cancel a
// solve at iteration 2 — and the instrumentation sites consult the
// active plan with the identity of the task they are about to run.
//
// Determinism rule: whether a trigger fires is a pure function of the
// armed plan and the task identity (the key), never of scheduling. Keys
// are stable task identities — a frontier state index, a sweep-point
// index, an iteration number — so an armed fault fires at the same
// logical place at any worker count.
// Randomness enters only at arming time (ArmSeeded draws keys from a
// seeded generator), never at fire time.
//
// With no plan active, every site is a single atomic load and a nil
// check; the package costs nothing in production.
package faultinject

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// Instrumentation sites. Each constant names one place the pipeline
// consults the active plan, with the key identifying the task.
const (
	// SiteGenerateExpand fires in a state-expansion task of lts.Generate;
	// the key is the state's dense identifier (BFS order).
	SiteGenerateExpand = "lts.generate.expand"
	// SiteSolveIteration fires at the top of a steady-state solver
	// iteration; the key is the iteration number. Pair it with OnFire to
	// cancel a solve at an exact iteration.
	SiteSolveIteration = "ctmc.solve.iteration"
	// SiteSweepPoint fires in a sweep-point task of pipeline.Session.Sweep; the
	// key is the global point index.
	SiteSweepPoint = "core.sweep.point"
	// SiteSimReplication fires in a replication task of sim.Run; the key
	// is the replication index.
	SiteSimReplication = "sim.replication"
)

// InjectedError is the panic value MaybePanic raises: tests recognize
// injected faults by errors.As through whatever wrapping the recovery
// layer adds.
type InjectedError struct {
	// Site is the instrumentation site that fired.
	Site string
	// Key is the task identity the trigger was armed for.
	Key int
}

// Error implements the error interface.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s key %d", e.Site, e.Key)
}

// Plan is a set of armed (site, key) triggers. Arm it before activation;
// Fire is safe for concurrent use by any number of workers.
type Plan struct {
	mu     sync.Mutex
	armed  map[string]map[int]bool
	fired  map[string]map[int]int
	onFire map[string]func(key int)
}

// NewPlan returns an empty plan.
func NewPlan() *Plan {
	return &Plan{
		armed: make(map[string]map[int]bool),
		fired: make(map[string]map[int]int),
	}
}

// Arm adds triggers for the given keys at a site.
func (p *Plan) Arm(site string, keys ...int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.armed[site]
	if m == nil {
		m = make(map[int]bool)
		p.armed[site] = m
	}
	for _, k := range keys {
		m[k] = true
	}
	return p
}

// ArmSeeded arms n distinct keys drawn without replacement from
// [0, keyspace) by a generator seeded with seed, and returns the keys in
// ascending order. The randomness is consumed here, at arming time; the
// armed plan itself is deterministic.
func (p *Plan) ArmSeeded(site string, seed uint64, n, keyspace int) []int {
	if n > keyspace {
		n = keyspace
	}
	r := rng.New(seed)
	chosen := make(map[int]bool, n)
	for len(chosen) < n {
		chosen[r.Intn(keyspace)] = true
	}
	keys := make([]int, 0, n)
	for k := range chosen {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	p.Arm(site, keys...)
	return keys
}

// OnFire registers a callback invoked (outside the plan lock) each time a
// trigger at the site fires — the hook cancel-at-iteration tests use to
// call their context's cancel function at an exact solver iteration.
func (p *Plan) OnFire(site string, fn func(key int)) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.onFire == nil {
		p.onFire = make(map[string]func(key int))
	}
	p.onFire[site] = fn
	return p
}

// fire reports whether (site, key) is armed and records the hit.
func (p *Plan) fire(site string, key int) (hit bool, cb func(key int)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.armed[site][key] {
		return false, nil
	}
	m := p.fired[site]
	if m == nil {
		m = make(map[int]int)
		p.fired[site] = m
	}
	m[key]++
	return true, p.onFire[site]
}

// Fired returns the keys that have fired at a site, in ascending order.
func (p *Plan) Fired(site string) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]int, 0, len(p.fired[site]))
	for k := range p.fired[site] {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// active is the process-wide plan the instrumentation sites consult; nil
// means injection is off and every site is a single atomic load.
var active atomic.Pointer[Plan]

// Activate installs the plan process-wide. Tests must Deactivate when
// done (defer it next to Activate).
func Activate(p *Plan) { active.Store(p) }

// Deactivate removes the active plan.
func Deactivate() { active.Store(nil) }

// Fire reports whether an armed trigger at (site, key) fires, invoking
// the site's OnFire callback when it does. With no active plan it is a
// nil check on one atomic load.
func Fire(site string, key int) bool {
	p := active.Load()
	if p == nil {
		return false
	}
	hit, cb := p.fire(site, key)
	if hit && cb != nil {
		cb(key)
	}
	return hit
}

// MaybePanic panics with an *InjectedError when an armed trigger at
// (site, key) fires — the panic-in-worker injection the pools' recovery
// paths are tested against.
func MaybePanic(site string, key int) {
	if Fire(site, key) {
		panic(&InjectedError{Site: site, Key: key})
	}
}

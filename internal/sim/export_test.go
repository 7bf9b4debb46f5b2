package sim

import (
	"runtime"

	"repro/internal/rng"
)

// ReplicateAfter runs replication i of cfg, as Run would, on a new runner
// that first runs the replications before, in order. It returns
// replication i's measure values and the clause-set keys of the runner's
// reward classes in the order of their runner-local ids. cfg must set
// Seed and MaxEvents, which Run would default.
func ReplicateAfter(cfg Config, before []int, i int) ([]float64, []string, error) {
	p, err := newPlan(cfg)
	if err != nil {
		return nil, nil, err
	}
	r := p.newRunner()
	master := rng.New(cfg.Seed)
	var vals []float64
	for _, j := range append(before, i) {
		if vals, _, err = r.replicate(j, master.Split(uint64(j))); err != nil {
			return nil, nil, err
		}
	}
	keys := make([]string, len(r.classes))
	for c, rc := range r.classes {
		keys[c] = rc.key
	}
	return vals, keys, nil
}

// FirstReplication runs replication 0 of cfg on a new runner and returns
// the heap allocations the replication made (not counting the runner's
// construction) and the number of states it compiled.
func FirstReplication(cfg Config) (allocs uint64, compiled int, err error) {
	p, err := newPlan(cfg)
	if err != nil {
		return 0, 0, err
	}
	r := p.newRunner()
	rnd := rng.New(cfg.Seed).Split(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = r.replicate(0, rnd)
	runtime.ReadMemStats(&after)
	for s := range int32(r.keys.Len()) {
		if r.rec(s).ready {
			compiled++
		}
	}
	return after.Mallocs - before.Mallocs, compiled, err
}

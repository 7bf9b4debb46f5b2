package elab

import (
	"fmt"

	"repro/internal/aemilia"
	"repro/internal/rates"
	"repro/internal/statespace"
)

// Pred names a locally-enabled predicate: true in a global state iff the
// instance's local configuration offers the action, whether or not the
// topology lets it fire (see Compiled.Enabled). Unattached interactions
// stay locally enabled, which is how reward monitors are expressed.
type Pred struct {
	// Instance is the instance name.
	Instance string
	// Action is the action name.
	Action string
}

// Name returns the canonical "Instance.Action" form of the predicate.
func (p Pred) Name() string { return p.Instance + "." + p.Action }

// Compiled is the composition of a model compiled to integer tables, the
// form the explicit state-space generator explores and the simulator
// executes. Each instance keeps an interner of its local configurations:
// a configuration gets a dense uint32 local id when a move first targets
// it, and a move table — action id, rate, target local id, plus one bit
// per requested predicate — the first time a global state containing it
// is expanded. A global state is
// then a tuple of local ids, one per instance in declaration order, and
// Successors combines move tables without touching a process term.
//
// Compilation is lazy, so an instance whose local configuration graph is
// unbounded (a data parameter the composition bounds) compiles exactly the
// configurations the global exploration reaches. Quotient models compile
// through the same LocalMovesOf as full ones.
//
// Action ids and label ids are fixed when Compile returns — every action
// the instance's behaviours name, every label the topology can produce —
// and are numbered alike by every Compiled of one model.
//
// A Compiled value is mutable (it grows as states are expanded) and must
// not be used from several goroutines at once; the underlying Model stays
// immutable and shareable.
type Compiled struct {
	m      *Model
	insts  []compInst
	labels []string // compiled label id → label
	preds  []compPred
	keyBuf []byte
	// cand and idx are Successors' AND-broadcast scratch: cand holds the
	// matching partner move indices back to back, candEnd[pi] ends
	// partner pi's run, idx is the combination counter.
	cand    []int32
	candEnd []int
	idx     []int
}

type compInst struct {
	name    string
	actions []string // action id → name
	actIDs  map[string]int32
	roles   []compRole // by action id
	keys    *statespace.Interner
	configs []LocalConfig // by local id
	tables  []*moveTable  // by local id; nil until compiled
	// preds lists the requested predicates on this instance.
	preds []int
}

// compRole is how one action of an instance takes part in the topology.
type compRole struct {
	kind roleKind
	// bcast marks an AND output with more than one partner.
	bcast bool
	// label is the "A.a" label of an internal action or the full
	// "A.o#B.i#C.j" label of a broadcast.
	label    int32
	partners []compPartner
}

// compPartner is one attached counterpart of an output interaction.
type compPartner struct {
	inst   int
	action int32 // action id in the partner instance
	label  int32 // "A.o#B.i"
}

// compPred is one requested predicate resolved against the topology.
type compPred struct {
	inst   int   // -1: unknown instance
	action int32 // -1: the instance never performs the action
	name   string
}

// moveTable is the compiled form of one local configuration.
type moveTable struct {
	moves []compMove
	// preds has bit p set when requested predicate p holds here.
	preds []uint64
}

// compMove is one compiled local move.
type compMove struct {
	action int32
	rate   rates.Rate
	next   uint32
}

// Succ is one compiled global transition: its label id (see Label), its
// combined rate and its active participant. Its target tuple is returned
// alongside (see Successors).
type Succ struct {
	Label int32
	Rate  rates.Rate
	// ActiveInst and ActiveAction (an action id of that instance, see
	// ActionName) identify the participant owning the transition's timing:
	// the partner whose rate is active — the last such partner of an AND
	// broadcast — and otherwise the moving or output instance.
	ActiveInst   int32
	ActiveAction int32
}

// Compile prepares the compiled composition of m for the given predicates.
// Nothing is compiled yet beyond the topology: local configurations and
// their move tables are added as Initial and Successors reach them.
func (m *Model) Compile(preds []Pred) *Compiled {
	c := &Compiled{m: m, insts: make([]compInst, len(m.insts))}
	for i := range m.insts {
		inst := &m.insts[i]
		ci := &c.insts[i]
		ci.name = inst.name
		ci.actIDs = make(map[string]int32)
		ci.keys = statespace.NewInterner()
		for _, a := range interactionNames(inst.et, true) {
			c.action(i, a)
		}
		for _, a := range interactionNames(inst.et, false) {
			c.action(i, a)
		}
		for _, b := range inst.et.Behaviors {
			collectActions(b.Body, func(a string) { c.action(i, a) })
		}
	}
	// Partners refer to action ids of other instances, so they are
	// resolved once every instance has its action table.
	for i := range m.insts {
		ci := &c.insts[i]
		for a, name := range ci.actions {
			r, ok := m.insts[i].roles[name]
			if !ok || r.kind != roleAttachedOut {
				continue
			}
			cr := compRole{kind: roleAttachedOut, bcast: r.mult == aemilia.And && len(r.partners) > 1}
			if cr.bcast {
				cr.label = c.label(r.bcastLabel)
			}
			for pi, pr := range r.partners {
				cr.partners = append(cr.partners, compPartner{
					inst:   pr.inst,
					action: c.action(pr.inst, pr.action),
					label:  c.label(r.partnerLabels[pi]),
				})
			}
			ci.roles[a] = cr
		}
	}
	c.preds = make([]compPred, len(preds))
	for p, pr := range preds {
		cp := compPred{inst: -1, action: -1, name: pr.Instance}
		if i, ok := m.InstanceIndex(pr.Instance); ok {
			cp.inst = i
			if a, ok := c.insts[i].actIDs[pr.Action]; ok {
				cp.action = a
			}
			c.insts[i].preds = append(c.insts[i].preds, p)
		}
		c.preds[p] = cp
	}
	return c
}

// label appends a label to the compiled label table.
func (c *Compiled) label(s string) int32 {
	c.labels = append(c.labels, s)
	return int32(len(c.labels) - 1)
}

// action returns the id of instance i's action, assigning the next one —
// and its role, from the elaborated topology — on first sight.
func (c *Compiled) action(i int, name string) int32 {
	ci := &c.insts[i]
	if a, ok := ci.actIDs[name]; ok {
		return a
	}
	a := int32(len(ci.actions))
	ci.actIDs[name] = a
	ci.actions = append(ci.actions, name)
	cr := compRole{kind: roleInternal}
	if r, ok := c.m.insts[i].roles[name]; ok {
		cr.kind = r.kind
	} else {
		cr.label = c.label(c.m.insts[i].internalLabel(name))
	}
	ci.roles = append(ci.roles, cr)
	return a
}

// NumInstances returns the tuple width: one local id per instance.
func (c *Compiled) NumInstances() int { return len(c.insts) }

// NumActions returns the number of action ids of instance i.
func (c *Compiled) NumActions(i int) int { return len(c.insts[i].actions) }

// ActionID returns the id of instance i's named action, and whether the
// instance performs or declares it at all.
func (c *Compiled) ActionID(i int, name string) (int32, bool) {
	a, ok := c.insts[i].actIDs[name]
	return a, ok
}

// ActionName returns the name of instance i's action id a.
func (c *Compiled) ActionName(i int, a int32) string { return c.insts[i].actions[a] }

// NumLabels returns the number of compiled label ids.
func (c *Compiled) NumLabels() int { return len(c.labels) }

// Label returns the label string of a compiled label id.
func (c *Compiled) Label(id int32) string { return c.labels[id] }

// intern returns the local id of instance i's configuration lc.
func (c *Compiled) intern(i int, lc LocalConfig) uint32 {
	ci := &c.insts[i]
	c.keyBuf = c.m.AppendLocalKey(c.keyBuf[:0], lc)
	id, fresh := ci.keys.Intern(c.keyBuf)
	if fresh {
		ci.configs = append(ci.configs, lc)
		ci.tables = append(ci.tables, nil)
	}
	return id
}

// Initial returns the tuple of the model's initial state.
func (c *Compiled) Initial() []uint32 {
	t := make([]uint32, len(c.insts))
	for i := range c.insts {
		t[i] = c.intern(i, c.m.InitialLocal(i))
	}
	return t
}

// State expands a tuple into the global state it stands for. Every id in
// the tuple must have been produced by this Compiled.
func (c *Compiled) State(t []uint32) State {
	s := make(State, len(t))
	for i, id := range t {
		s[i] = c.insts[i].configs[id]
	}
	return s
}

// table returns the move table of instance i's local id, compiling it on
// first use.
func (c *Compiled) table(i int, id uint32) (*moveTable, error) {
	ci := &c.insts[i]
	if t := ci.tables[id]; t != nil {
		return t, nil
	}
	mv, err := c.m.LocalMovesOf(i, ci.configs[id])
	if err != nil {
		return nil, err
	}
	t := &moveTable{moves: make([]compMove, len(mv))}
	for k := range mv {
		t.moves[k] = compMove{
			action: c.action(i, mv[k].Act.Name),
			rate:   mv[k].Act.Rate,
			next:   c.intern(i, mv[k].Next),
		}
	}
	for _, p := range ci.preds {
		for k := range t.moves {
			if t.moves[k].action == c.preds[p].action {
				if t.preds == nil {
					t.preds = make([]uint64, (len(c.preds)+63)/64)
				}
				t.preds[p/64] |= 1 << (p % 64)
				break
			}
		}
	}
	ci.tables[id] = t
	return t, nil
}

// Enabled reports whether requested predicate p holds in tuple t.
func (c *Compiled) Enabled(p int, t []uint32) (bool, error) {
	cp := c.preds[p]
	if cp.inst < 0 {
		return false, fmt.Errorf("elab: unknown instance %q", cp.name)
	}
	tab, err := c.table(cp.inst, t[cp.inst])
	if err != nil {
		return false, err
	}
	return tab.preds != nil && tab.preds[p/64]&(1<<(p%64)) != 0, nil
}

// Successors appends the transitions enabled in tuple src to succ, and
// their target tuples (NumInstances local ids each, in the same order) to
// next, and returns both extended slices. Transitions are ordered by
// instance ascending, then local-move order, then partner order, then the
// AND-broadcast combination counter. The order is part of the contract:
// the generator's state numbering and the simulator's draws follow it.
func (c *Compiled) Successors(src []uint32, succ []Succ, next []uint32) ([]Succ, []uint32, error) {
	n := len(c.insts)
	for i := range c.insts {
		if _, err := c.table(i, src[i]); err != nil {
			return succ, next, err
		}
	}
	for i := range c.insts {
		ci := &c.insts[i]
		for _, mv := range ci.tables[src[i]].moves {
			r := &ci.roles[mv.action]
			switch r.kind {
			case roleInternal:
				succ = append(succ, Succ{Label: r.label, Rate: mv.rate, ActiveInst: int32(i), ActiveAction: mv.action})
				next = append(next, src...)
				next[len(next)-n+i] = mv.next
			case roleAttachedOut:
				var err error
				if r.bcast {
					succ, next, err = c.broadcast(src, i, mv, r, succ, next)
				} else {
					succ, next, err = c.syncEach(src, i, mv, r, succ, next)
				}
				if err != nil {
					return succ, next, err
				}
			}
			// Blocked interactions never fire; attached inputs fire from
			// the output side.
		}
	}
	return succ, next, nil
}

// syncEach synchronizes a UNI or OR output move with one partner at a
// time.
func (c *Compiled) syncEach(src []uint32, i int, mv compMove, r *compRole, succ []Succ, next []uint32) ([]Succ, []uint32, error) {
	n := len(c.insts)
	for _, p := range r.partners {
		for _, mv2 := range c.insts[p.inst].tables[src[p.inst]].moves {
			if mv2.action != p.action {
				continue
			}
			combined, err := rates.Combine(mv.rate, mv2.rate)
			if err != nil {
				return succ, next, fmt.Errorf("elab: %s.%s # %s.%s: %w",
					c.insts[i].name, c.insts[i].actions[mv.action],
					c.insts[p.inst].name, c.insts[p.inst].actions[mv2.action], err)
			}
			s := Succ{Label: p.label, Rate: combined, ActiveInst: int32(i), ActiveAction: mv.action}
			if mv2.rate.IsActive() {
				s.ActiveInst, s.ActiveAction = int32(p.inst), mv2.action
			}
			succ = append(succ, s)
			next = append(next, src...)
			next[len(next)-n+i] = mv.next
			next[len(next)-n+p.inst] = mv2.next
		}
	}
	return succ, next, nil
}

// broadcast builds the AND-synchronization transitions of an output move:
// every partner must offer the action, and one transition is generated
// per combination of partner moves.
func (c *Compiled) broadcast(src []uint32, i int, mv compMove, r *compRole, succ []Succ, next []uint32) ([]Succ, []uint32, error) {
	n := len(c.insts)
	c.cand, c.candEnd = c.cand[:0], c.candEnd[:0]
	for _, p := range r.partners {
		start := len(c.cand)
		for k, mv2 := range c.insts[p.inst].tables[src[p.inst]].moves {
			if mv2.action == p.action {
				c.cand = append(c.cand, int32(k))
			}
		}
		if len(c.cand) == start {
			return succ, next, nil // some partner refuses: broadcast disabled
		}
		c.candEnd = append(c.candEnd, len(c.cand))
	}
	c.idx = c.idx[:0]
	for range r.partners {
		c.idx = append(c.idx, 0)
	}
	for {
		s := Succ{Label: r.label, Rate: mv.rate, ActiveInst: int32(i), ActiveAction: mv.action}
		next = append(next, src...)
		t := next[len(next)-n:]
		t[i] = mv.next
		start := 0
		for pi, p := range r.partners {
			mv2 := c.insts[p.inst].tables[src[p.inst]].moves[c.cand[start+c.idx[pi]]]
			var err error
			s.Rate, err = rates.Combine(s.Rate, mv2.rate)
			if err != nil {
				return succ, next, fmt.Errorf("elab: broadcast %s.%s # %s.%s: %w",
					c.insts[i].name, c.insts[i].actions[mv.action],
					c.insts[p.inst].name, c.insts[p.inst].actions[mv2.action], err)
			}
			if mv2.rate.IsActive() {
				s.ActiveInst, s.ActiveAction = int32(p.inst), mv2.action
			}
			t[p.inst] = mv2.next
			start = c.candEnd[pi]
		}
		succ = append(succ, s)
		// Advance the combination counter.
		k := len(c.idx) - 1
		for k >= 0 {
			lo := 0
			if k > 0 {
				lo = c.candEnd[k-1]
			}
			c.idx[k]++
			if c.idx[k] < c.candEnd[k]-lo {
				break
			}
			c.idx[k] = 0
			k--
		}
		if k < 0 {
			return succ, next, nil
		}
	}
}

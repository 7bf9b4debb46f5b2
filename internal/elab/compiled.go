package elab

import (
	"fmt"
	"math/bits"

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
// it, and its moves — action id, rate id, target local id, plus one bit
// per requested predicate — the first time a global state containing it
// is expanded. An instance keeps the moves of all its configurations in
// one flat array, each configuration's a contiguous span. A global state
// is then a tuple of local ids, one per instance in declaration order,
// and Successors combines move spans without touching a process term.
//
// Rates are ids too: every local and combined rate is interned by its
// bits (Kind, Slot, Priority and the IEEE bits of Lambda and Weight) and
// read back with Rate. The combination of two rate ids is memoized, so a
// synchronization costs a table lookup rather than a rates.Combine.
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
	// cur holds, by instance, the move span of the state Successors is
	// expanding. cand and idx are its AND-broadcast scratch: cand holds
	// the matching partner move indices back to back, candEnd[pi] ends
	// partner pi's run, idx is the combination counter.
	cur     []moveSpan
	cand    []int32
	candEnd []int
	idx     []int

	// rateTab interns every local and combined rate; active[id] caches
	// IsActive. combined memoizes combineID over ids below memoW:
	// combined[a*memoW+b] is the id of the pair's combination plus one, or
	// 0 when not computed yet (or incompatible, which is never stored).
	rateTab  statespace.RateTable
	active   []bool
	combined []int32
	memoW    int
}

// maxMemoW bounds the combination memo to maxMemoW² entries; pairs of
// rarer rate ids are combined afresh each time.
const maxMemoW = 256

type compInst struct {
	name    string
	actions []string // action id → name
	actIDs  map[string]int32
	roles   []compRole // by action id
	keys    *statespace.Interner
	configs []LocalConfig // by local id
	// moves holds the compiled moves of every local configuration;
	// spans[id] frames local id's, and its lo is -1 until they are
	// compiled. predBits holds ⌈len(Compiled.preds)/64⌉ words per local
	// id, with bit p set when requested predicate p holds there (nil when
	// no predicate names this instance).
	moves    []compMove
	spans    []moveSpan
	predBits []uint64
	// preds lists the requested predicates on this instance.
	preds []int
}

// moveSpan frames one local configuration's moves in compInst.moves.
type moveSpan struct{ lo, hi int32 }

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

// compMove is one compiled local move.
type compMove struct {
	action int32
	rate   int32 // rate id
	next   uint32
}

// Succ is one compiled global transition: its label id (see Label), the
// id of its combined rate (see Rate) and its active participant. Its
// target tuple is returned alongside (see Successors).
type Succ struct {
	Label int32
	Rate  int32
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

// Rate returns the rate of a rate id (Succ.Rate).
func (c *Compiled) Rate(id int32) rates.Rate { return c.rateTab.Rates()[id] }

// rateID returns the id of r, interning it on first sight.
func (c *Compiled) rateID(r rates.Rate) int32 {
	id := c.rateTab.Intern(&r)
	if int(id) == len(c.active) {
		c.active = append(c.active, r.IsActive())
	}
	return id
}

// combineID returns the id of rates.Combine of rate ids a and b. The
// memo holds compatible pairs only, so an incompatible one calls
// rates.Combine again and returns the same error every time.
func (c *Compiled) combineID(a, b int32) (int32, error) {
	w := c.memoW
	if int(a) < w && int(b) < w {
		if v := c.combined[int(a)*w+int(b)]; v != 0 {
			return v - 1, nil
		}
	}
	tab := c.rateTab.Rates()
	r, err := rates.Combine(tab[a], tab[b])
	if err != nil {
		return 0, err
	}
	id := c.rateID(r)
	if n := len(c.active); n > w && w < maxMemoW {
		// Widen the memo to the next power of two past every id, keeping
		// what it holds.
		nw := min(maxMemoW, max(8, 1<<bits.Len(uint(n-1))))
		memo := make([]int32, nw*nw)
		for x := 0; x < w; x++ {
			copy(memo[x*nw:x*nw+w], c.combined[x*w:(x+1)*w])
		}
		c.combined, c.memoW, w = memo, nw, nw
	}
	if int(a) < w && int(b) < w {
		c.combined[int(a)*w+int(b)] = id + 1
	}
	return id, nil
}

// intern returns the local id of instance i's configuration lc.
func (c *Compiled) intern(i int, lc LocalConfig) uint32 {
	ci := &c.insts[i]
	c.keyBuf = c.m.AppendLocalKey(c.keyBuf[:0], lc)
	id, fresh := ci.keys.Intern(c.keyBuf)
	if fresh {
		ci.configs = append(ci.configs, lc)
		ci.spans = append(ci.spans, moveSpan{lo: -1})
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

// compile compiles the moves of instance i's local id, whose span is
// still unset.
func (c *Compiled) compile(i int, id uint32) error {
	ci := &c.insts[i]
	mv, err := c.m.LocalMovesOf(i, ci.configs[id])
	if err != nil {
		return err
	}
	lo := int32(len(ci.moves))
	for k := range mv {
		ci.moves = append(ci.moves, compMove{
			action: c.action(i, mv[k].Act.Name),
			rate:   c.rateID(mv[k].Act.Rate),
			next:   c.intern(i, mv[k].Next),
		})
	}
	ci.spans[id] = moveSpan{lo: lo, hi: int32(len(ci.moves))}
	if len(ci.preds) > 0 {
		words := (len(c.preds) + 63) / 64
		if need := len(ci.spans) * words; len(ci.predBits) < need {
			ci.predBits = append(ci.predBits, make([]uint64, need-len(ci.predBits))...)
		}
		for _, p := range ci.preds {
			for _, m := range ci.moves[lo:] {
				if m.action == c.preds[p].action {
					ci.predBits[int(id)*words+p/64] |= 1 << (p % 64)
					break
				}
			}
		}
	}
	return nil
}

// movesOf returns instance i's moves in the state Successors is
// expanding.
func (c *Compiled) movesOf(i int) []compMove {
	sp := c.cur[i]
	return c.insts[i].moves[sp.lo:sp.hi]
}

// Enabled reports whether requested predicate p holds in tuple t.
func (c *Compiled) Enabled(p int, t []uint32) (bool, error) {
	cp := c.preds[p]
	if cp.inst < 0 {
		return false, fmt.Errorf("elab: unknown instance %q", cp.name)
	}
	if c.insts[cp.inst].spans[t[cp.inst]].lo < 0 {
		if err := c.compile(cp.inst, t[cp.inst]); err != nil {
			return false, err
		}
	}
	words := (len(c.preds) + 63) / 64
	return c.insts[cp.inst].predBits[int(t[cp.inst])*words+p/64]&(1<<(p%64)) != 0, nil
}

// Successors appends the transitions enabled in tuple src to succ, and
// their target tuples (NumInstances local ids each, in the same order) to
// next, and returns both extended slices. Transitions are ordered by
// instance ascending, then local-move order, then partner order, then the
// AND-broadcast combination counter. The order is part of the contract:
// the generator's state numbering and the simulator's draws follow it.
func (c *Compiled) Successors(src []uint32, succ []Succ, next []uint32) ([]Succ, []uint32, error) {
	n := len(c.insts)
	c.cur = c.cur[:0]
	for i := range c.insts {
		spans := c.insts[i].spans
		if spans[src[i]].lo < 0 {
			if err := c.compile(i, src[i]); err != nil {
				return succ, next, err
			}
			spans = c.insts[i].spans
		}
		c.cur = append(c.cur, spans[src[i]])
	}
	for i := range c.insts {
		ci := &c.insts[i]
		for _, mv := range c.movesOf(i) {
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
		for _, mv2 := range c.movesOf(p.inst) {
			if mv2.action != p.action {
				continue
			}
			combined, err := c.combineID(mv.rate, mv2.rate)
			if err != nil {
				return succ, next, fmt.Errorf("elab: %s.%s # %s.%s: %w",
					c.insts[i].name, c.insts[i].actions[mv.action],
					c.insts[p.inst].name, c.insts[p.inst].actions[mv2.action], err)
			}
			s := Succ{Label: p.label, Rate: combined, ActiveInst: int32(i), ActiveAction: mv.action}
			if c.active[mv2.rate] {
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
		for k, mv2 := range c.movesOf(p.inst) {
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
			mv2 := c.movesOf(p.inst)[c.cand[start+c.idx[pi]]]
			var err error
			s.Rate, err = c.combineID(s.Rate, mv2.rate)
			if err != nil {
				return succ, next, fmt.Errorf("elab: broadcast %s.%s # %s.%s: %w",
					c.insts[i].name, c.insts[i].actions[mv.action],
					c.insts[p.inst].name, c.insts[p.inst].actions[mv2.action], err)
			}
			if c.active[mv2.rate] {
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

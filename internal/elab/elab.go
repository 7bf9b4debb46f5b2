// Package elab elaborates a validated architectural description into an
// executable composition: it instantiates element types, resolves
// attachments, and compiles the composition to integer tables (Compile)
// whose Successors is the one-step relation over global states. Both the
// explicit state-space generator (internal/lts) and the discrete-event
// simulator (internal/sim) run on that compiled form.
//
// A global state is a vector of per-instance local configurations; a local
// configuration is a position in the instance's behaviour (a process node)
// plus the current values of the enclosing behaviour's parameters.
//
// Transition labels follow the TwoTowers convention: an internal action of
// instance A is labelled "A.a"; a synchronization of A's output interaction
// o with B's input interaction i is labelled "A.o#B.i". Unattached
// interactions are blocked (they produce no transitions) but remain
// *locally enabled*, which is how reward monitors are expressed without
// perturbing the model's dynamics.
package elab

import (
	"fmt"
	"strings"

	"repro/internal/aemilia"
	"repro/internal/expr"
)

// LocalConfig is the configuration of a single instance: a process node
// identifier plus the values of the enclosing behaviour's parameters.
type LocalConfig struct {
	// Node is the process-node identifier (see aemilia.Process.ID).
	Node int
	// Args are the current parameter values of the enclosing behaviour.
	Args []expr.Value
}

// State is a global state: one local configuration per instance, in
// topology declaration order.
type State []LocalConfig

// LocalMove is an action an instance can perform from its current
// configuration, before considering the topology.
type LocalMove struct {
	// Act is the performed action (name and rate annotation).
	Act aemilia.Action
	// Next is the instance's configuration after the action.
	Next LocalConfig
}

// roleKind classifies how an action of an instance relates to the topology.
type roleKind int

const (
	roleInternal roleKind = iota + 1 // not an interaction
	roleAttachedOut
	roleAttachedIn
	roleBlocked // declared interaction, not attached
)

// partnerRef identifies one attached counterpart of an interaction.
type partnerRef struct {
	inst   int
	action string
}

type role struct {
	kind roleKind
	mult aemilia.Multiplicity
	// partners lists the attached counterparts (one for UNI, possibly
	// several for AND/OR).
	partners []partnerRef
	// partnerLabels holds the precomputed "A.o#B.i" label per partner, and
	// bcastLabel the full AND-broadcast label; both are fixed by the
	// topology and compiled into label ids once.
	partnerLabels []string
	bcastLabel    string
}

type instance struct {
	name  string
	et    *aemilia.ElemType
	roles map[string]role
	init  LocalConfig
	// actLabels precomputes the "A.a" label of every internal action.
	actLabels map[string]string
}

// internalLabel returns the precomputed "A.a" label of an internal action.
func (in *instance) internalLabel(action string) string {
	if l, ok := in.actLabels[action]; ok {
		return l
	}
	return in.name + "." + action
}

type nodeInfo struct {
	proc     aemilia.Process
	behavior *aemilia.Behavior
}

// Model is an elaborated architectural description. It is immutable once
// Elaborate returns — labels, roles, and node tables are precomputed and
// never written again — so a single Model may be shared by any number of
// goroutines: Compile, LocalMovesOf, Describe and DescribeLocal are safe
// to call concurrently, and AppendLocalKey is safe as long as each
// goroutine appends into its own buffer. The mutable state lives in the
// Compiled values: concurrent state-space generations (internal/lts) and
// the simulator's replication workers (internal/sim) each compile their
// own from one shared Model.
type Model struct {
	insts []instance
	nodes []nodeInfo // indexed by process-node ID
	// numRateSlots is the highest rate-slot index appearing in any action
	// annotation of the description (0 when the model is not parametric).
	numRateSlots int
}

// Elaborate turns a validated description into an executable composition.
func Elaborate(a *aemilia.ArchiType) (*Model, error) {
	if !a.Validated() {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	m := &Model{nodes: make([]nodeInfo, a.NodeCount())}

	for _, et := range a.ElemTypes {
		for _, b := range et.Behaviors {
			if err := m.indexNodes(b.Body, b); err != nil {
				return nil, err
			}
		}
	}

	// Record the rate-slot arity of the description: the highest slot
	// index on any action annotation. Slots are declared densely (1..k),
	// so the maximum is the number of symbolic rate parameters a
	// downstream rate point must supply.
	for _, ni := range m.nodes {
		if pre, ok := ni.proc.(*aemilia.Prefix); ok {
			if s := pre.Act.Rate.Slot; s > m.numRateSlots {
				m.numRateSlots = s
			}
		}
	}

	instIdx := make(map[string]int, len(a.Instances))
	for i, in := range a.Instances {
		instIdx[in.Name] = i
	}

	for _, in := range a.Instances {
		et := in.Type()
		roles := make(map[string]role)
		for _, action := range interactionNames(et, true) {
			p, _ := et.InputPort(action)
			roles[action] = role{kind: roleBlocked, mult: p.Mult}
		}
		for _, action := range interactionNames(et, false) {
			p, _ := et.OutputPort(action)
			roles[action] = role{kind: roleBlocked, mult: p.Mult}
		}
		args := make([]expr.Value, len(in.Args))
		for i, ae := range in.Args {
			v, err := ae.Eval(nil)
			if err != nil {
				return nil, fmt.Errorf("elab: instance %s argument %d: %w", in.Name, i+1, err)
			}
			args[i] = v
		}
		m.insts = append(m.insts, instance{
			name:  in.Name,
			et:    et,
			roles: roles,
			init:  LocalConfig{Node: et.Initial().Body.ID(), Args: args},
		})
	}

	for _, at := range a.Attachments {
		fi, ti := instIdx[at.FromInstance], instIdx[at.ToInstance]
		fr := m.insts[fi].roles[at.FromPort]
		fr.kind = roleAttachedOut
		fr.partners = append(fr.partners, partnerRef{inst: ti, action: at.ToPort})
		m.insts[fi].roles[at.FromPort] = fr
		tr := m.insts[ti].roles[at.ToPort]
		tr.kind = roleAttachedIn
		tr.partners = append(tr.partners, partnerRef{inst: fi, action: at.FromPort})
		m.insts[ti].roles[at.ToPort] = tr
	}

	// Precompute every transition label the composition can produce: the
	// topology is fixed after elaboration, so Compile interns them without
	// any string concatenation.
	for i := range m.insts {
		inst := &m.insts[i]
		inst.actLabels = make(map[string]string)
		for _, b := range inst.et.Behaviors {
			collectActions(b.Body, func(name string) {
				if _, ok := inst.actLabels[name]; !ok {
					inst.actLabels[name] = inst.name + "." + name
				}
			})
		}
		for action, r := range inst.roles {
			if len(r.partners) == 0 {
				continue
			}
			// A partner label is "A.a#B.b"; the broadcast label carries
			// every partner's "#B.b" segment after one "A.a", so with one
			// partner it is that partner's label.
			base := inst.name + "." + action
			r.partnerLabels = make([]string, len(r.partners))
			size := len(base)
			for pi, pr := range r.partners {
				r.partnerLabels[pi] = base + "#" + m.insts[pr.inst].name + "." + pr.action
				size += len(r.partnerLabels[pi]) - len(base)
			}
			r.bcastLabel = r.partnerLabels[0]
			if len(r.partners) > 1 {
				var sb strings.Builder
				sb.Grow(size)
				sb.WriteString(base)
				for _, pl := range r.partnerLabels {
					sb.WriteString(pl[len(base):])
				}
				r.bcastLabel = sb.String()
			}
			inst.roles[action] = r
		}
	}
	return m, nil
}

// NumRateSlots returns the number of symbolic rate parameters of the
// model: the highest slot index (rates.Rate.Slot) appearing in any action
// annotation, or 0 for a fully constant-rated model. A transition system
// generated from the model carries the same slots on its edges
// (lts.LTS.NumRateSlots), and a chain extracted from it accepts
// rate points (ctmc.SolveBatchLanes) of exactly this many values.
func (m *Model) NumRateSlots() int { return m.numRateSlots }

// collectActions visits the action name of every prefix in a process body.
func collectActions(p aemilia.Process, visit func(string)) {
	switch x := p.(type) {
	case *aemilia.Prefix:
		visit(x.Act.Name)
		collectActions(x.Cont, visit)
	case *aemilia.Choice:
		for _, br := range x.Branches {
			collectActions(br, visit)
		}
	case *aemilia.Guarded:
		collectActions(x.Body, visit)
	}
}

// interactionNames lists the declared interaction names of one direction.
func interactionNames(et *aemilia.ElemType, inputs bool) []string {
	var ports []aemilia.Port
	if inputs {
		ports = et.InPorts
		if len(ports) == 0 {
			out := make([]string, len(et.Inputs))
			copy(out, et.Inputs)
			return out
		}
	} else {
		ports = et.OutPorts
		if len(ports) == 0 {
			out := make([]string, len(et.Outputs))
			copy(out, et.Outputs)
			return out
		}
	}
	out := make([]string, len(ports))
	for i, p := range ports {
		out[i] = p.Name
	}
	return out
}

func (m *Model) indexNodes(p aemilia.Process, b *aemilia.Behavior) error {
	id := p.ID()
	if id < 0 || id >= len(m.nodes) {
		return fmt.Errorf("elab: node id %d out of range (unvalidated description?)", id)
	}
	m.nodes[id] = nodeInfo{proc: p, behavior: b}
	switch x := p.(type) {
	case *aemilia.Prefix:
		return m.indexNodes(x.Cont, b)
	case *aemilia.Choice:
		for _, br := range x.Branches {
			if err := m.indexNodes(br, b); err != nil {
				return err
			}
		}
	case *aemilia.Guarded:
		return m.indexNodes(x.Body, b)
	}
	return nil
}

// NumInstances returns the number of element instances.
func (m *Model) NumInstances() int { return len(m.insts) }

// InstanceName returns the name of the i-th instance.
func (m *Model) InstanceName(i int) string { return m.insts[i].name }

// InstanceIndex returns the index of the named instance.
func (m *Model) InstanceIndex(name string) (int, bool) {
	for i := range m.insts {
		if m.insts[i].name == name {
			return i, true
		}
	}
	return 0, false
}

// env builds the evaluation environment of a local configuration.
func (m *Model) env(c LocalConfig) (expr.MapEnv, error) {
	b := m.nodes[c.Node].behavior
	if len(b.Params) != len(c.Args) {
		return nil, fmt.Errorf("elab: configuration of behaviour %s has %d value(s) for %d parameter(s)",
			b.Name, len(c.Args), len(b.Params))
	}
	if len(b.Params) == 0 {
		return nil, nil
	}
	env := make(expr.MapEnv, len(b.Params))
	for i, p := range b.Params {
		env[p.Name] = c.Args[i]
	}
	return env, nil
}

// contConfig computes the configuration reached by following continuation
// cont under environment env (resolving behaviour invocations).
func (m *Model) contConfig(cont aemilia.Process, env expr.MapEnv, args []expr.Value) (LocalConfig, error) {
	if call, ok := cont.(*aemilia.Call); ok {
		target := call.Target()
		vals := make([]expr.Value, len(call.Args))
		for i, ae := range call.Args {
			v, err := ae.Eval(env)
			if err != nil {
				return LocalConfig{}, fmt.Errorf("elab: invocation of %s, argument %d: %w", call.Name, i+1, err)
			}
			vals[i] = v
		}
		return LocalConfig{Node: target.Body.ID(), Args: vals}, nil
	}
	return LocalConfig{Node: cont.ID(), Args: args}, nil
}

// InitialLocal returns the initial local configuration of instance i.
func (m *Model) InitialLocal(i int) LocalConfig { return m.insts[i].init }

// LocalMovesOf returns the actions instance i can perform from local
// configuration c, before applying the topology. It is the one local-move
// entry: Compile builds its move tables from it.
func (m *Model) LocalMovesOf(i int, c LocalConfig) ([]LocalMove, error) {
	env, err := m.env(c)
	if err != nil {
		return nil, err
	}
	var moves []LocalMove
	var walk func(p aemilia.Process) error
	walk = func(p aemilia.Process) error {
		switch x := p.(type) {
		case *aemilia.Stop:
			return nil
		case *aemilia.Prefix:
			next, err := m.contConfig(x.Cont, env, c.Args)
			if err != nil {
				return err
			}
			moves = append(moves, LocalMove{Act: x.Act, Next: next})
			return nil
		case *aemilia.Choice:
			for _, br := range x.Branches {
				if err := walk(br); err != nil {
					return err
				}
			}
			return nil
		case *aemilia.Guarded:
			v, err := x.Cond.Eval(env)
			if err != nil {
				return fmt.Errorf("elab: guard in %s: %w", m.insts[i].name, err)
			}
			if v.Bool {
				return walk(x.Body)
			}
			return nil
		default:
			return fmt.Errorf("elab: unexpected process node %T in configuration", p)
		}
	}
	if err := walk(m.nodes[c.Node].proc); err != nil {
		return nil, err
	}
	return moves, nil
}

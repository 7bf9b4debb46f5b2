// Package aemilia defines architectural descriptions in the style of the
// Æmilia architectural description language: architectural element types
// (AETs) with process-algebraic behaviours and declared input/output
// interactions, composed by a topology of instances and one-to-one (UNI)
// attachments.
//
// A description can be built programmatically (see Builder) or parsed from
// the textual .aem syntax (see the parser subpackage). Descriptions must be
// validated with Validate before elaboration; validation resolves behaviour
// invocations, checks interaction declarations and attachments, and assigns
// the node identifiers the elaborator relies on.
package aemilia

import (
	"slices"

	"repro/internal/expr"
	"repro/internal/rates"
)

// ArchiType is a complete architectural description: element types plus
// a topology of instances and attachments.
type ArchiType struct {
	// Name is the architectural type name.
	Name string
	// ElemTypes lists the declared element types, in declaration order.
	ElemTypes []*ElemType
	// Instances lists the declared element instances, in declaration order.
	Instances []*Instance
	// Attachments lists the declared attachments.
	Attachments []Attachment

	// validated is set by Validate.
	validated bool
	// elemByName indexes ElemTypes; built by Validate.
	elemByName map[string]*ElemType
	// instByName indexes Instances; built by Validate.
	instByName map[string]*Instance
	// nodeCount is the number of process nodes numbered by Validate.
	nodeCount int
}

// Multiplicity classifies how many attachments an interaction supports
// and how a synchronization involving it fires.
type Multiplicity int

// Interaction multiplicities.
const (
	// Uni interactions are attached to exactly one partner.
	Uni Multiplicity = iota + 1
	// And output interactions broadcast: one firing synchronizes with
	// every attached input simultaneously.
	And
	// Or interactions fire with exactly one of the attached partners,
	// chosen among those currently offering.
	Or
)

// String returns the declaration keyword of the multiplicity.
func (m Multiplicity) String() string {
	switch m {
	case Uni:
		return "UNI"
	case And:
		return "AND"
	case Or:
		return "OR"
	default:
		return "?"
	}
}

// Port declares one interaction with its multiplicity.
type Port struct {
	// Name is the action name.
	Name string
	// Mult is the interaction multiplicity (zero value resolves to Uni).
	Mult Multiplicity
}

// ElemType is an architectural element type: a family of behaviour
// equations plus declared interactions.
type ElemType struct {
	// Name is the element type name.
	Name string
	// Behaviors lists the behaviour equations; the first is the initial
	// behaviour of every instance of the type.
	Behaviors []*Behavior
	// Inputs and Outputs declare the UNI input and output interaction
	// names (kept for compatibility; see InPorts/OutPorts for the full
	// declarations). Any action not listed is internal to the element.
	Inputs, Outputs []string
	// InPorts and OutPorts optionally declare interactions with explicit
	// multiplicities; when empty, Inputs/Outputs are used as UNI ports.
	InPorts, OutPorts []Port

	behaviorByName map[string]*Behavior
}

// InputPort returns the declaration of the named input interaction.
func (t *ElemType) InputPort(name string) (Port, bool) { return findPort(t.InPorts, t.Inputs, name) }

// OutputPort returns the declaration of the named output interaction.
func (t *ElemType) OutputPort(name string) (Port, bool) { return findPort(t.OutPorts, t.Outputs, name) }

// findPort looks name up among one direction's effective declarations:
// ports when given, else names as UNI ports.
func findPort(ports []Port, names []string, name string) (Port, bool) {
	if len(ports) == 0 {
		if slices.Contains(names, name) {
			return Port{Name: name, Mult: Uni}, true
		}
		return Port{}, false
	}
	for _, p := range ports {
		if p.Name == name {
			if p.Mult == 0 {
				p.Mult = Uni
			}
			return p, true
		}
	}
	return Port{}, false
}

// Param declares a formal parameter of a behaviour.
type Param struct {
	// Name is the parameter name.
	Name string
	// Type is the parameter type.
	Type expr.Type
}

// Behavior is one behaviour equation of an element type.
type Behavior struct {
	// Name is the behaviour name.
	Name string
	// Params are the formal parameters.
	Params []Param
	// Body is the process term; it must be action-guarded (Stop, an
	// action prefix, or a choice — not a bare invocation).
	Body Process
}

// Action is an occurrence of an action with its timing annotation.
type Action struct {
	// Name is the action name. Whether it is an interaction or internal
	// is decided by the owning element type's declarations.
	Name string
	// Rate is the timing annotation.
	Rate rates.Rate
}

// Process is a node of a process term. Concrete types: *Stop, *Prefix,
// *Choice, *Guarded, *Call.
type Process interface {
	// ID returns the node identifier assigned by Validate
	// (valid only after validation).
	ID() int

	setID(int)
}

type node struct{ id int }

func (n *node) ID() int     { return n.id }
func (n *node) setID(i int) { n.id = i }

// Stop is the terminated process.
type Stop struct{ node }

// Prefix performs an action and continues as Cont.
type Prefix struct {
	node
	// Act is the performed action.
	Act Action
	// Cont is the continuation process.
	Cont Process
}

// Choice offers a nondeterministic choice among its branches. Each branch
// must begin with an action prefix, possibly under a guard.
type Choice struct {
	node
	// Branches are the alternatives.
	Branches []Process
}

// Guarded restricts a branch to the states where Cond evaluates to true.
type Guarded struct {
	node
	// Cond is the boolean guard.
	Cond expr.Expr
	// Body is the guarded branch; it must begin with an action prefix.
	Body Process
}

// Call invokes a behaviour equation of the same element type.
type Call struct {
	node
	// Name is the invoked behaviour name.
	Name string
	// Args are the actual parameters.
	Args []expr.Expr

	target *Behavior
}

// Target returns the resolved behaviour (valid only after validation).
func (c *Call) Target() *Behavior { return c.target }

// Instance declares an element instance of the topology.
type Instance struct {
	// Name is the instance name.
	Name string
	// TypeName names the instantiated element type.
	TypeName string
	// Args are the actual parameters of the type's initial behaviour.
	Args []expr.Expr

	elemType *ElemType
}

// Type returns the resolved element type (valid only after validation).
func (i *Instance) Type() *ElemType { return i.elemType }

// Attachment connects an output interaction of one instance to an input
// interaction of another.
type Attachment struct {
	// FromInstance and FromPort identify the output side.
	FromInstance, FromPort string
	// ToInstance and ToPort identify the input side.
	ToInstance, ToPort string
}

// Validated reports whether Validate succeeded on the description.
func (a *ArchiType) Validated() bool { return a.validated }

// NodeCount returns the number of numbered process nodes
// (valid only after validation).
func (a *ArchiType) NodeCount() int { return a.nodeCount }

// Initial returns the initial behaviour of the element type.
func (t *ElemType) Initial() *Behavior {
	if len(t.Behaviors) == 0 {
		return nil
	}
	return t.Behaviors[0]
}

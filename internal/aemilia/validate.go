package aemilia

import (
	"fmt"
	"slices"

	"repro/internal/expr"
)

// ValidationError reports a semantic error in an architectural description.
type ValidationError struct {
	// Where locates the error (element type, behaviour, instance, …).
	Where string
	// Msg describes the problem.
	Msg string
}

// Error implements error.
func (e *ValidationError) Error() string {
	if e.Where == "" {
		return "aemilia: " + e.Msg
	}
	return "aemilia: " + e.Where + ": " + e.Msg
}

func verrf(where, format string, args ...any) error {
	return &ValidationError{Where: where, Msg: fmt.Sprintf(format, args...)}
}

// Validate checks the description for semantic consistency, resolves
// behaviour invocations and instance types, and assigns node identifiers.
// It must be called (successfully) before elaboration. Validate is
// idempotent.
func (a *ArchiType) Validate() error {
	if a.Name == "" {
		return verrf("", "architectural type has no name")
	}
	if len(a.ElemTypes) == 0 {
		return verrf(a.Name, "no element types declared")
	}
	if len(a.Instances) == 0 {
		return verrf(a.Name, "no instances declared")
	}

	a.elemByName = make(map[string]*ElemType, len(a.ElemTypes))
	for _, et := range a.ElemTypes {
		if et.Name == "" {
			return verrf(a.Name, "element type with empty name")
		}
		if _, dup := a.elemByName[et.Name]; dup {
			return verrf(a.Name, "duplicate element type %q", et.Name)
		}
		a.elemByName[et.Name] = et
	}

	nextID := 0
	for _, et := range a.ElemTypes {
		if err := a.validateElemType(et, &nextID); err != nil {
			return err
		}
	}
	a.nodeCount = nextID

	a.instByName = make(map[string]*Instance, len(a.Instances))
	for _, in := range a.Instances {
		if in.Name == "" {
			return verrf(a.Name, "instance with empty name")
		}
		if _, dup := a.instByName[in.Name]; dup {
			return verrf(a.Name, "duplicate instance %q", in.Name)
		}
		et, ok := a.elemByName[in.TypeName]
		if !ok {
			return verrf("instance "+in.Name, "unknown element type %q", in.TypeName)
		}
		in.elemType = et
		init := et.Initial()
		if len(in.Args) != len(init.Params) {
			return verrf("instance "+in.Name,
				"behaviour %s expects %d argument(s), got %d",
				init.Name, len(init.Params), len(in.Args))
		}
		for i, arg := range in.Args {
			ty, err := expr.Check(arg, nil)
			if err != nil {
				return verrf("instance "+in.Name, "argument %d: %v", i+1, err)
			}
			if ty != init.Params[i].Type {
				return verrf("instance "+in.Name,
					"argument %d: got %v, want %v", i+1, ty, init.Params[i].Type)
			}
		}
		a.instByName[in.Name] = in
	}

	// Attachments: resolve endpoints and enforce multiplicities. UNI
	// interactions admit at most one attachment; AND and OR outputs admit
	// several. AND multiplicity on inputs is not supported (a broadcast
	// is driven by its output side).
	type endpoint struct{ inst, port string }
	used := make(map[endpoint]int, 2*len(a.Attachments))
	for _, at := range a.Attachments {
		from, ok := a.instByName[at.FromInstance]
		if !ok {
			return verrf(at.where(), "unknown instance %q", at.FromInstance)
		}
		to, ok := a.instByName[at.ToInstance]
		if !ok {
			return verrf(at.where(), "unknown instance %q", at.ToInstance)
		}
		if at.FromInstance == at.ToInstance {
			return verrf(at.where(), "an instance cannot be attached to itself")
		}
		outPort, ok := from.elemType.OutputPort(at.FromPort)
		if !ok {
			return verrf(at.where(), "%q is not an output interaction of %s",
				at.FromPort, from.elemType.Name)
		}
		inPort, ok := to.elemType.InputPort(at.ToPort)
		if !ok {
			return verrf(at.where(), "%q is not an input interaction of %s",
				at.ToPort, to.elemType.Name)
		}
		if inPort.Mult == And {
			return verrf(at.where(), "AND multiplicity is only supported on output interactions")
		}
		fe := endpoint{at.FromInstance, at.FromPort}
		te := endpoint{at.ToInstance, at.ToPort}
		used[fe]++
		used[te]++
		if outPort.Mult == Uni && used[fe] > 1 {
			return verrf(at.where(), "output %s.%s attached more than once (UNI)",
				at.FromInstance, at.FromPort)
		}
		if inPort.Mult == Uni && used[te] > 1 {
			return verrf(at.where(), "input %s.%s attached more than once (UNI)",
				at.ToInstance, at.ToPort)
		}
	}

	a.validated = true
	return nil
}

// where locates an error in the attachment. Validate builds it only when
// it reports one.
func (at Attachment) where() string {
	return "attachment " + at.FromInstance + "." + at.FromPort + " -> " + at.ToInstance + "." + at.ToPort
}

// where locates an error in the element type.
func (et *ElemType) where() string { return "element type " + et.Name }

// behaviorWhere locates an error in behaviour b of the element type.
func (et *ElemType) behaviorWhere(b *Behavior) string {
	return et.where() + ", behaviour " + b.Name
}

func (a *ArchiType) validateElemType(et *ElemType, nextID *int) error {
	if len(et.Behaviors) == 0 {
		return verrf(et.where(), "no behaviour equations")
	}
	et.behaviorByName = make(map[string]*Behavior, len(et.Behaviors))
	for _, b := range et.Behaviors {
		if b.Name == "" {
			return verrf(et.where(), "behaviour with empty name")
		}
		if _, dup := et.behaviorByName[b.Name]; dup {
			return verrf(et.where(), "duplicate behaviour %q", b.Name)
		}
		for i, p := range b.Params {
			if p.Name == "" {
				return verrf(et.behaviorWhere(b), "parameter with empty name")
			}
			if slices.ContainsFunc(b.Params[:i], func(q Param) bool { return q.Name == p.Name }) {
				return verrf(et.behaviorWhere(b), "duplicate parameter %q", p.Name)
			}
			if p.Type != expr.TypeInt && p.Type != expr.TypeBool {
				return verrf(et.behaviorWhere(b), "parameter %q has invalid type", p.Name)
			}
		}
		et.behaviorByName[b.Name] = b
	}
	// Interactions must not be declared both input and output, and port
	// declarations must not repeat names.
	seen := make(map[string]bool)
	if err := et.checkPorts(et.InPorts, et.Inputs, seen, "interaction %q declared twice"); err != nil {
		return err
	}
	if err := et.checkPorts(et.OutPorts, et.Outputs, seen, "interaction %q declared both input and output"); err != nil {
		return err
	}
	for _, b := range et.Behaviors {
		var env expr.TypeEnv
		if len(b.Params) > 0 {
			env = make(expr.TypeEnv, len(b.Params))
			for _, p := range b.Params {
				env[p.Name] = p.Type
			}
		}
		if b.Body == nil {
			return verrf(et.behaviorWhere(b), "nil body")
		}
		if _, isCall := b.Body.(*Call); isCall {
			return verrf(et.behaviorWhere(b), "body must be action-guarded, found bare invocation")
		}
		if err := a.validateProcess(et, b, b.Body, env, nextID); err != nil {
			return err
		}
	}
	return nil
}

// checkPorts checks one direction's declarations, ports when given, else
// names as UNI ports, for empty names and for names already in seen,
// reported with the format repeated; it adds each name to seen.
func (et *ElemType) checkPorts(ports []Port, names []string, seen map[string]bool, repeated string) error {
	n := len(ports)
	if n == 0 {
		n = len(names)
	}
	for i := range n {
		var name string
		if len(ports) > 0 {
			name = ports[i].Name
		} else {
			name = names[i]
		}
		if name == "" {
			return verrf(et.where(), "interaction with empty name")
		}
		if seen[name] {
			return verrf(et.where(), repeated, name)
		}
		seen[name] = true
	}
	return nil
}

// validateProcess numbers p and its descendants and checks guardedness,
// invocation resolution, and expression typing. Its callers reject a nil
// p, and a *Call anywhere but a prefix continuation, before recursing.
func (a *ArchiType) validateProcess(et *ElemType, b *Behavior, p Process, env expr.TypeEnv, nextID *int) error {
	p.setID(*nextID)
	*nextID++
	switch x := p.(type) {
	case *Stop:
		return nil
	case *Prefix:
		if x.Act.Name == "" {
			return verrf(et.behaviorWhere(b), "action with empty name")
		}
		if err := x.Act.Rate.Validate(); err != nil {
			return verrf(et.behaviorWhere(b), "action %q: %v", x.Act.Name, err)
		}
		if x.Cont == nil {
			return verrf(et.behaviorWhere(b), "action %q has nil continuation", x.Act.Name)
		}
		return a.validateProcess(et, b, x.Cont, env, nextID)
	case *Choice:
		if len(x.Branches) < 2 {
			return verrf(et.behaviorWhere(b), "choice needs at least two branches")
		}
		for _, br := range x.Branches {
			switch br.(type) {
			case *Prefix, *Guarded:
			default:
				return verrf(et.behaviorWhere(b), "choice branch must be an action prefix or a guarded prefix, found %T", br)
			}
			if err := a.validateProcess(et, b, br, env, nextID); err != nil {
				return err
			}
		}
		return nil
	case *Guarded:
		if x.Cond == nil {
			return verrf(et.behaviorWhere(b), "guard with nil condition")
		}
		ty, err := expr.Check(x.Cond, env)
		if err != nil {
			return verrf(et.behaviorWhere(b), "guard: %v", err)
		}
		if ty != expr.TypeBool {
			return verrf(et.behaviorWhere(b), "guard must be boolean, got %v", ty)
		}
		switch x.Body.(type) {
		case *Prefix, *Guarded, *Choice:
		default:
			return verrf(et.behaviorWhere(b), "guarded body must be action-guarded, found %T", x.Body)
		}
		return a.validateProcess(et, b, x.Body, env, nextID)
	case *Call:
		target, ok := et.behaviorByName[x.Name]
		if !ok {
			return verrf(et.behaviorWhere(b), "invocation of unknown behaviour %q", x.Name)
		}
		if len(x.Args) != len(target.Params) {
			return verrf(et.behaviorWhere(b), "invocation of %s: expects %d argument(s), got %d",
				x.Name, len(target.Params), len(x.Args))
		}
		for i, arg := range x.Args {
			ty, err := expr.Check(arg, env)
			if err != nil {
				return verrf(et.behaviorWhere(b), "invocation of %s, argument %d: %v", x.Name, i+1, err)
			}
			if ty != target.Params[i].Type {
				return verrf(et.behaviorWhere(b), "invocation of %s, argument %d: got %v, want %v",
					x.Name, i+1, ty, target.Params[i].Type)
			}
		}
		x.target = target
		return nil
	default:
		return verrf(et.behaviorWhere(b), "unknown process node %T", p)
	}
}

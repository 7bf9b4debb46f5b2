package aemilia

import (
	"fmt"

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
		where := fmt.Sprintf("attachment %s.%s -> %s.%s",
			at.FromInstance, at.FromPort, at.ToInstance, at.ToPort)
		from, ok := a.instByName[at.FromInstance]
		if !ok {
			return verrf(where, "unknown instance %q", at.FromInstance)
		}
		to, ok := a.instByName[at.ToInstance]
		if !ok {
			return verrf(where, "unknown instance %q", at.ToInstance)
		}
		if at.FromInstance == at.ToInstance {
			return verrf(where, "an instance cannot be attached to itself")
		}
		outPort, ok := from.elemType.OutputPort(at.FromPort)
		if !ok {
			return verrf(where, "%q is not an output interaction of %s",
				at.FromPort, from.elemType.Name)
		}
		inPort, ok := to.elemType.InputPort(at.ToPort)
		if !ok {
			return verrf(where, "%q is not an input interaction of %s",
				at.ToPort, to.elemType.Name)
		}
		if inPort.Mult == And {
			return verrf(where, "AND multiplicity is only supported on output interactions")
		}
		fe := endpoint{at.FromInstance, at.FromPort}
		te := endpoint{at.ToInstance, at.ToPort}
		used[fe]++
		used[te]++
		if outPort.Mult == Uni && used[fe] > 1 {
			return verrf(where, "output %s.%s attached more than once (UNI)",
				at.FromInstance, at.FromPort)
		}
		if inPort.Mult == Uni && used[te] > 1 {
			return verrf(where, "input %s.%s attached more than once (UNI)",
				at.ToInstance, at.ToPort)
		}
	}

	a.validated = true
	return nil
}

func (a *ArchiType) validateElemType(et *ElemType, nextID *int) error {
	where := "element type " + et.Name
	if len(et.Behaviors) == 0 {
		return verrf(where, "no behaviour equations")
	}
	et.behaviorByName = make(map[string]*Behavior, len(et.Behaviors))
	for _, b := range et.Behaviors {
		if b.Name == "" {
			return verrf(where, "behaviour with empty name")
		}
		if _, dup := et.behaviorByName[b.Name]; dup {
			return verrf(where, "duplicate behaviour %q", b.Name)
		}
		seen := make(map[string]bool, len(b.Params))
		for _, p := range b.Params {
			if p.Name == "" {
				return verrf(where+", behaviour "+b.Name, "parameter with empty name")
			}
			if seen[p.Name] {
				return verrf(where+", behaviour "+b.Name, "duplicate parameter %q", p.Name)
			}
			if p.Type != expr.TypeInt && p.Type != expr.TypeBool {
				return verrf(where+", behaviour "+b.Name, "parameter %q has invalid type", p.Name)
			}
			seen[p.Name] = true
		}
		et.behaviorByName[b.Name] = b
	}
	// Interactions must not be declared both input and output, and port
	// declarations must not repeat names.
	seenPort := make(map[string]bool)
	for _, p := range et.inputPorts() {
		if p.Name == "" {
			return verrf(where, "interaction with empty name")
		}
		if seenPort[p.Name] {
			return verrf(where, "interaction %q declared twice", p.Name)
		}
		seenPort[p.Name] = true
	}
	for _, p := range et.outputPorts() {
		if p.Name == "" {
			return verrf(where, "interaction with empty name")
		}
		if seenPort[p.Name] {
			return verrf(where, "interaction %q declared both input and output", p.Name)
		}
		seenPort[p.Name] = true
	}
	for _, b := range et.Behaviors {
		env := make(expr.TypeEnv, len(b.Params))
		for _, p := range b.Params {
			env[p.Name] = p.Type
		}
		bwhere := where + ", behaviour " + b.Name
		if b.Body == nil {
			return verrf(bwhere, "nil body")
		}
		if _, isCall := b.Body.(*Call); isCall {
			return verrf(bwhere, "body must be action-guarded, found bare invocation")
		}
		if err := a.validateProcess(et, b.Body, env, bwhere, nextID, true); err != nil {
			return err
		}
	}
	return nil
}

// validateProcess numbers p and its descendants and checks guardedness,
// invocation resolution, and expression typing. top marks positions where
// a process state can rest (behaviour bodies and prefix continuations).
func (a *ArchiType) validateProcess(et *ElemType, p Process, env expr.TypeEnv, where string, nextID *int, top bool) error {
	if p == nil {
		return verrf(where, "nil process node")
	}
	p.setID(*nextID)
	*nextID++
	switch x := p.(type) {
	case *Stop:
		return nil
	case *Prefix:
		if x.Act.Name == "" {
			return verrf(where, "action with empty name")
		}
		if err := x.Act.Rate.Validate(); err != nil {
			return verrf(where, "action %q: %v", x.Act.Name, err)
		}
		if x.Cont == nil {
			return verrf(where, "action %q has nil continuation", x.Act.Name)
		}
		return a.validateProcess(et, x.Cont, env, where, nextID, true)
	case *Choice:
		if len(x.Branches) < 2 {
			return verrf(where, "choice needs at least two branches")
		}
		for _, br := range x.Branches {
			switch br.(type) {
			case *Prefix, *Guarded:
			default:
				return verrf(where, "choice branch must be an action prefix or a guarded prefix, found %T", br)
			}
			if err := a.validateProcess(et, br, env, where, nextID, false); err != nil {
				return err
			}
		}
		return nil
	case *Guarded:
		if x.Cond == nil {
			return verrf(where, "guard with nil condition")
		}
		ty, err := expr.Check(x.Cond, env)
		if err != nil {
			return verrf(where, "guard: %v", err)
		}
		if ty != expr.TypeBool {
			return verrf(where, "guard must be boolean, got %v", ty)
		}
		switch x.Body.(type) {
		case *Prefix, *Guarded, *Choice:
		default:
			return verrf(where, "guarded body must be action-guarded, found %T", x.Body)
		}
		return a.validateProcess(et, x.Body, env, where, nextID, false)
	case *Call:
		if !top {
			return verrf(where, "behaviour invocation %q only allowed as a continuation", x.Name)
		}
		target, ok := et.behaviorByName[x.Name]
		if !ok {
			return verrf(where, "invocation of unknown behaviour %q", x.Name)
		}
		if len(x.Args) != len(target.Params) {
			return verrf(where, "invocation of %s: expects %d argument(s), got %d",
				x.Name, len(target.Params), len(x.Args))
		}
		for i, arg := range x.Args {
			ty, err := expr.Check(arg, env)
			if err != nil {
				return verrf(where, "invocation of %s, argument %d: %v", x.Name, i+1, err)
			}
			if ty != target.Params[i].Type {
				return verrf(where, "invocation of %s, argument %d: got %v, want %v",
					x.Name, i+1, ty, target.Params[i].Type)
			}
		}
		x.target = target
		return nil
	default:
		return verrf(where, "unknown process node %T", p)
	}
}

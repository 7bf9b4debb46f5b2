// Package expr provides the small typed expression language used by
// architectural behaviours: 64-bit integer and boolean expressions over
// named parameters, with arithmetic, comparison, and logical operators.
//
// Expressions appear in three places in an architectural description:
// as arguments of behaviour invocations (e.g. Buffer(n+1)), as boolean
// guards on choice branches (e.g. cond(n < cap)), and as initial values
// of instance parameters. Evaluation is total over well-typed inputs
// except for division/modulo by zero, which is reported as an error.
package expr

import (
	"fmt"
	"strconv"
)

// Type identifies the type of a value or expression.
type Type int

// Supported expression types.
const (
	TypeInt Type = iota + 1
	TypeBool
)

// String returns the source-level name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "integer"
	case TypeBool:
		return "boolean"
	default:
		return "unknown"
	}
}

// Value is a runtime value: either an integer or a boolean.
type Value struct {
	// Kind is the type of the value.
	Kind Type
	// Int holds the value when Kind is TypeInt.
	Int int64
	// Bool holds the value when Kind is TypeBool.
	Bool bool
}

// IntValue builds an integer value.
func IntValue(v int64) Value { return Value{Kind: TypeInt, Int: v} }

// BoolValue builds a boolean value.
func BoolValue(v bool) Value { return Value{Kind: TypeBool, Bool: v} }

// String renders the value in source syntax.
func (v Value) String() string {
	switch v.Kind {
	case TypeInt:
		return strconv.FormatInt(v.Int, 10)
	case TypeBool:
		return strconv.FormatBool(v.Bool)
	default:
		return "<invalid>"
	}
}

// Equal reports whether two values have the same type and content.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case TypeInt:
		return v.Int == w.Int
	case TypeBool:
		return v.Bool == w.Bool
	default:
		return false
	}
}

// Env supplies values for free variables during evaluation.
type Env interface {
	// Lookup returns the value bound to name, and whether it exists.
	Lookup(name string) (Value, bool)
}

// MapEnv is an Env backed by a map.
type MapEnv map[string]Value

var _ Env = MapEnv(nil)

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (Value, bool) {
	v, ok := m[name]
	return v, ok
}

// Expr is a side-effect-free expression tree.
type Expr interface {
	// Eval evaluates the expression under env.
	Eval(env Env) (Value, error)
	// String renders the expression in source syntax.
	String() string
}

// IntLit is an integer literal.
type IntLit struct{ Value int64 }

// BoolLit is a boolean literal.
type BoolLit struct{ Value bool }

// Var references a parameter by name.
type Var struct{ Name string }

// Op identifies a unary or binary operator.
type Op int

// Operators.
const (
	OpAdd Op = iota + 1
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNeg // unary minus
	OpNot // unary not
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "and", OpOr: "or", OpNeg: "-", OpNot: "not",
}

// String returns the source-level spelling of the operator.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return "?"
}

// Unary applies OpNeg or OpNot to an operand.
type Unary struct {
	Op Op
	X  Expr
}

// Binary applies a binary operator to two operands.
type Binary struct {
	Op   Op
	L, R Expr
}

var (
	_ Expr = IntLit{}
	_ Expr = BoolLit{}
	_ Expr = Var{}
	_ Expr = Unary{}
	_ Expr = Binary{}
)

// Int builds an integer literal expression.
func Int(v int64) Expr { return IntLit{Value: v} }

// Bool builds a boolean literal expression.
func Bool(v bool) Expr { return BoolLit{Value: v} }

// Ref builds a variable reference expression.
func Ref(name string) Expr { return Var{Name: name} }

// Bin builds a binary expression.
func Bin(op Op, l, r Expr) Expr { return Binary{Op: op, L: l, R: r} }

// Un builds a unary expression.
func Un(op Op, x Expr) Expr { return Unary{Op: op, X: x} }

// Eval implements Expr.
func (e IntLit) Eval(Env) (Value, error) { return IntValue(e.Value), nil }

// String implements Expr.
func (e IntLit) String() string { return strconv.FormatInt(e.Value, 10) }

// Eval implements Expr.
func (e BoolLit) Eval(Env) (Value, error) { return BoolValue(e.Value), nil }

// String implements Expr.
func (e BoolLit) String() string { return strconv.FormatBool(e.Value) }

// Eval implements Expr.
func (e Var) Eval(env Env) (Value, error) {
	if env == nil {
		return Value{}, &UndefinedVarError{Name: e.Name}
	}
	v, ok := env.Lookup(e.Name)
	if !ok {
		return Value{}, &UndefinedVarError{Name: e.Name}
	}
	return v, nil
}

// String implements Expr.
func (e Var) String() string { return e.Name }

// Eval implements Expr.
func (e Unary) Eval(env Env) (Value, error) {
	v, err := e.X.Eval(env)
	if err != nil {
		return Value{}, err
	}
	switch e.Op {
	case OpNeg:
		if v.Kind != TypeInt {
			return Value{}, &TypeError{Op: e.Op, Got: v.Kind, Want: TypeInt}
		}
		return IntValue(-v.Int), nil
	case OpNot:
		if v.Kind != TypeBool {
			return Value{}, &TypeError{Op: e.Op, Got: v.Kind, Want: TypeBool}
		}
		return BoolValue(!v.Bool), nil
	default:
		return Value{}, fmt.Errorf("expr: invalid unary operator %v", e.Op)
	}
}

// String implements Expr.
func (e Unary) String() string {
	if e.Op == OpNot {
		return "not(" + e.X.String() + ")"
	}
	return "-(" + e.X.String() + ")"
}

// Eval implements Expr.
func (e Binary) Eval(env Env) (Value, error) {
	l, err := e.L.Eval(env)
	if err != nil {
		return Value{}, err
	}
	// Short-circuit logical operators.
	switch e.Op {
	case OpAnd:
		if l.Kind != TypeBool {
			return Value{}, &TypeError{Op: e.Op, Got: l.Kind, Want: TypeBool}
		}
		if !l.Bool {
			return BoolValue(false), nil
		}
		r, err := e.R.Eval(env)
		if err != nil {
			return Value{}, err
		}
		if r.Kind != TypeBool {
			return Value{}, &TypeError{Op: e.Op, Got: r.Kind, Want: TypeBool}
		}
		return BoolValue(r.Bool), nil
	case OpOr:
		if l.Kind != TypeBool {
			return Value{}, &TypeError{Op: e.Op, Got: l.Kind, Want: TypeBool}
		}
		if l.Bool {
			return BoolValue(true), nil
		}
		r, err := e.R.Eval(env)
		if err != nil {
			return Value{}, err
		}
		if r.Kind != TypeBool {
			return Value{}, &TypeError{Op: e.Op, Got: r.Kind, Want: TypeBool}
		}
		return BoolValue(r.Bool), nil
	}
	r, err := e.R.Eval(env)
	if err != nil {
		return Value{}, err
	}
	switch e.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		if l.Kind != TypeInt {
			return Value{}, &TypeError{Op: e.Op, Got: l.Kind, Want: TypeInt}
		}
		if r.Kind != TypeInt {
			return Value{}, &TypeError{Op: e.Op, Got: r.Kind, Want: TypeInt}
		}
		switch e.Op {
		case OpAdd:
			return IntValue(l.Int + r.Int), nil
		case OpSub:
			return IntValue(l.Int - r.Int), nil
		case OpMul:
			return IntValue(l.Int * r.Int), nil
		case OpDiv:
			if r.Int == 0 {
				return Value{}, ErrDivisionByZero
			}
			return IntValue(l.Int / r.Int), nil
		default: // OpMod
			if r.Int == 0 {
				return Value{}, ErrDivisionByZero
			}
			return IntValue(l.Int % r.Int), nil
		}
	case OpEq, OpNe:
		if l.Kind != r.Kind {
			return Value{}, &TypeError{Op: e.Op, Got: r.Kind, Want: l.Kind}
		}
		eq := l.Equal(r)
		if e.Op == OpNe {
			eq = !eq
		}
		return BoolValue(eq), nil
	case OpLt, OpLe, OpGt, OpGe:
		if l.Kind != TypeInt {
			return Value{}, &TypeError{Op: e.Op, Got: l.Kind, Want: TypeInt}
		}
		if r.Kind != TypeInt {
			return Value{}, &TypeError{Op: e.Op, Got: r.Kind, Want: TypeInt}
		}
		var b bool
		switch e.Op {
		case OpLt:
			b = l.Int < r.Int
		case OpLe:
			b = l.Int <= r.Int
		case OpGt:
			b = l.Int > r.Int
		default: // OpGe
			b = l.Int >= r.Int
		}
		return BoolValue(b), nil
	default:
		return Value{}, fmt.Errorf("expr: invalid binary operator %v", e.Op)
	}
}

// String implements Expr.
func (e Binary) String() string {
	return "(" + e.L.String() + " " + e.Op.String() + " " + e.R.String() + ")"
}

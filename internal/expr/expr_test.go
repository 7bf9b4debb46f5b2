package expr

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestLiterals(t *testing.T) {
	v, err := Int(42).Eval(nil)
	if err != nil {
		t.Fatalf("Int eval: %v", err)
	}
	if v.Kind != TypeInt || v.Int != 42 {
		t.Errorf("Int(42) = %v, want 42", v)
	}
	b, err := Bool(true).Eval(nil)
	if err != nil {
		t.Fatalf("Bool eval: %v", err)
	}
	if b.Kind != TypeBool || !b.Bool {
		t.Errorf("Bool(true) = %v, want true", b)
	}
}

func TestVarLookup(t *testing.T) {
	env := MapEnv{"n": IntValue(7)}
	v, err := Ref("n").Eval(env)
	if err != nil {
		t.Fatalf("Ref eval: %v", err)
	}
	if v.Int != 7 {
		t.Errorf("n = %v, want 7", v)
	}
}

func TestVarUndefined(t *testing.T) {
	_, err := Ref("missing").Eval(MapEnv{})
	var ue *UndefinedVarError
	if !errors.As(err, &ue) {
		t.Fatalf("want UndefinedVarError, got %v", err)
	}
	if ue.Name != "missing" {
		t.Errorf("Name = %q, want missing", ue.Name)
	}
	if _, err := Ref("x").Eval(nil); err == nil {
		t.Error("nil env lookup should fail")
	}
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		name string
		e    Expr
		want int64
	}{
		{"add", Bin(OpAdd, Int(2), Int(3)), 5},
		{"sub", Bin(OpSub, Int(2), Int(3)), -1},
		{"mul", Bin(OpMul, Int(4), Int(3)), 12},
		{"div", Bin(OpDiv, Int(7), Int(2)), 3},
		{"mod", Bin(OpMod, Int(7), Int(2)), 1},
		{"neg", Un(OpNeg, Int(5)), -5},
		{"nested", Bin(OpAdd, Bin(OpMul, Int(2), Int(3)), Int(1)), 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, err := tt.e.Eval(nil)
			if err != nil {
				t.Fatalf("eval: %v", err)
			}
			if v.Kind != TypeInt || v.Int != tt.want {
				t.Errorf("got %v, want %d", v, tt.want)
			}
		})
	}
}

func TestComparisons(t *testing.T) {
	tests := []struct {
		name string
		e    Expr
		want bool
	}{
		{"lt", Bin(OpLt, Int(1), Int(2)), true},
		{"le-eq", Bin(OpLe, Int(2), Int(2)), true},
		{"gt", Bin(OpGt, Int(1), Int(2)), false},
		{"ge", Bin(OpGe, Int(3), Int(2)), true},
		{"eq-int", Bin(OpEq, Int(2), Int(2)), true},
		{"ne-int", Bin(OpNe, Int(2), Int(2)), false},
		{"eq-bool", Bin(OpEq, Bool(true), Bool(true)), true},
		{"and", Bin(OpAnd, Bool(true), Bool(false)), false},
		{"or", Bin(OpOr, Bool(false), Bool(true)), true},
		{"not", Un(OpNot, Bool(true)), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, err := tt.e.Eval(nil)
			if err != nil {
				t.Fatalf("eval: %v", err)
			}
			if v.Kind != TypeBool || v.Bool != tt.want {
				t.Errorf("got %v, want %t", v, tt.want)
			}
		})
	}
}

func TestDivisionByZero(t *testing.T) {
	for _, op := range []Op{OpDiv, OpMod} {
		_, err := Bin(op, Int(1), Int(0)).Eval(nil)
		if !errors.Is(err, ErrDivisionByZero) {
			t.Errorf("op %v: want ErrDivisionByZero, got %v", op, err)
		}
	}
}

func TestTypeErrors(t *testing.T) {
	tests := []struct {
		name string
		e    Expr
	}{
		{"add-bool", Bin(OpAdd, Bool(true), Int(1))},
		{"add-bool-rhs", Bin(OpAdd, Int(1), Bool(true))},
		{"lt-bool", Bin(OpLt, Bool(true), Bool(false))},
		{"and-int", Bin(OpAnd, Int(1), Bool(true))},
		{"and-int-rhs", Bin(OpAnd, Bool(true), Int(1))},
		{"or-int", Bin(OpOr, Int(1), Bool(true))},
		{"not-int", Un(OpNot, Int(1))},
		{"neg-bool", Un(OpNeg, Bool(true))},
		{"eq-mixed", Bin(OpEq, Int(1), Bool(true))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.e.Eval(nil)
			var te *TypeError
			if !errors.As(err, &te) {
				t.Errorf("want TypeError, got %v", err)
			}
		})
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand references an undefined variable; short-circuit
	// evaluation must not reach it.
	if v, err := Bin(OpAnd, Bool(false), Ref("boom")).Eval(MapEnv{}); err != nil || v.Bool {
		t.Errorf("false and boom = (%v, %v), want false", v, err)
	}
	if v, err := Bin(OpOr, Bool(true), Ref("boom")).Eval(MapEnv{}); err != nil || !v.Bool {
		t.Errorf("true or boom = (%v, %v), want true", v, err)
	}
}

func TestString(t *testing.T) {
	e := Bin(OpAdd, Ref("n"), Int(1))
	if got := e.String(); got != "(n + 1)" {
		t.Errorf("String = %q, want (n + 1)", got)
	}
	if got := Un(OpNot, Ref("b")).String(); got != "not(b)" {
		t.Errorf("String = %q", got)
	}
	if got := Un(OpNeg, Int(3)).String(); got != "-(3)" {
		t.Errorf("String = %q", got)
	}
}

func TestFreeVars(t *testing.T) {
	e := Bin(OpAdd, Ref("a"), Bin(OpMul, Ref("b"), Ref("a")))
	got := freeVars(e, nil)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("FreeVars = %v, want [a b]", got)
	}
	got = freeVars(Un(OpNot, Ref("c")), []string{"a"})
	if len(got) != 2 || got[1] != "c" {
		t.Errorf("FreeVars with seed = %v, want [a c]", got)
	}
}

func TestValueEqual(t *testing.T) {
	if !IntValue(3).Equal(IntValue(3)) {
		t.Error("3 != 3")
	}
	if IntValue(3).Equal(IntValue(4)) {
		t.Error("3 == 4")
	}
	if IntValue(1).Equal(BoolValue(true)) {
		t.Error("int == bool")
	}
	if !BoolValue(false).Equal(BoolValue(false)) {
		t.Error("false != false")
	}
}

// Property: integer arithmetic on expressions agrees with Go arithmetic.
func TestQuickArithmeticAgreesWithGo(t *testing.T) {
	f := func(a, b int32) bool {
		env := MapEnv{"a": IntValue(int64(a)), "b": IntValue(int64(b))}
		sum, err := Bin(OpAdd, Ref("a"), Ref("b")).Eval(env)
		if err != nil || sum.Int != int64(a)+int64(b) {
			return false
		}
		prod, err := Bin(OpMul, Ref("a"), Ref("b")).Eval(env)
		if err != nil || prod.Int != int64(a)*int64(b) {
			return false
		}
		lt, err := Bin(OpLt, Ref("a"), Ref("b")).Eval(env)
		return err == nil && lt.Bool == (a < b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: comparison operators form a total order consistent triple.
func TestQuickComparisonConsistency(t *testing.T) {
	f := func(a, b int64) bool {
		env := MapEnv{"a": IntValue(a), "b": IntValue(b)}
		eval := func(op Op) bool {
			v, err := Bin(op, Ref("a"), Ref("b")).Eval(env)
			if err != nil {
				t.Fatalf("eval: %v", err)
			}
			return v.Bool
		}
		lt, eq, gt := eval(OpLt), eval(OpEq), eval(OpGt)
		// Exactly one of <, =, > holds.
		n := 0
		for _, x := range []bool{lt, eq, gt} {
			if x {
				n++
			}
		}
		return n == 1 && eval(OpLe) == (lt || eq) && eval(OpGe) == (gt || eq) && eval(OpNe) == !eq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String round-trips structurally deterministic output
// (same expression prints identically).
func TestQuickStringDeterministic(t *testing.T) {
	f := func(a, b int16) bool {
		e := Bin(OpSub, Int(int64(a)), Int(int64(b)))
		return e.String() == e.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// freeVars appends the names of the free variables of e to dst, in
// left-to-right first-occurrence order, without duplicates.
func freeVars(e Expr, dst []string) []string {
	seen := make(map[string]bool, len(dst))
	for _, n := range dst {
		seen[n] = true
	}
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Var:
			if !seen[x.Name] {
				seen[x.Name] = true
				dst = append(dst, x.Name)
			}
		case Unary:
			walk(x.X)
		case Binary:
			walk(x.L)
			walk(x.R)
		}
	}
	walk(e)
	return dst
}

package elab

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/aemilia/parser"
	"repro/internal/rates"
)

// allPreds requests every action of every instance as a predicate, plus
// an action no instance has and an instance the model does not declare.
func allPreds(m *Model) []Pred {
	var preds []Pred
	for i := range m.insts {
		inst := &m.insts[i]
		seen := map[string]bool{}
		add := func(a string) {
			if !seen[a] {
				seen[a] = true
				preds = append(preds, Pred{Instance: inst.name, Action: a})
			}
		}
		for _, a := range interactionNames(inst.et, true) {
			add(a)
		}
		for _, a := range interactionNames(inst.et, false) {
			add(a)
		}
		for _, b := range inst.et.Behaviors {
			collectActions(b.Body, add)
		}
		add("no_such_action")
	}
	return append(preds, Pred{Instance: "NoSuchInstance", Action: "a"})
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// CompareCompiled explores m breadth-first over compiled tuples, for at
// most maxStates states, and checks every state's compiled successor list
// against the reference Model.Successors — same order, labels, rates,
// active participants and target states — and every predicate against
// LocallyEnabled, errors included. It returns the number of states
// checked.
func CompareCompiled(m *Model, maxStates int) (int, error) {
	preds := allPreds(m)
	c := m.Compile(preds)
	n := c.NumInstances()
	t0 := c.Initial()
	if !Equal(c.State(t0), m.Initial()) {
		return 0, fmt.Errorf("initial tuple %v is %s, want %s", t0, m.Describe(c.State(t0)), m.Describe(m.Initial()))
	}
	seen := map[string]bool{fmt.Sprint(t0): true}
	queue := [][]uint32{t0}
	var (
		succ []Succ
		next []uint32
		gerr error
	)
	for qi := 0; qi < len(queue) && qi < maxStates; qi++ {
		src := queue[qi]
		s := c.State(src)
		want, werr := m.Successors(s)
		succ, next, gerr = c.Successors(src, succ[:0], next[:0])
		if !sameErr(werr, gerr) {
			return qi, fmt.Errorf("state %s: compiled error %v, want %v", m.Describe(s), gerr, werr)
		}
		if werr != nil {
			return qi + 1, nil
		}
		if len(succ) != len(want) || len(next) != n*len(want) {
			return qi, fmt.Errorf("state %s: %d compiled successors (%d ids), want %d",
				m.Describe(s), len(succ), len(next), len(want))
		}
		for k := range want {
			t := next[k*n : (k+1)*n]
			if got := c.Label(succ[k].Label); got != want[k].Label {
				return qi, fmt.Errorf("state %s successor %d: label %q, want %q", m.Describe(s), k, got, want[k].Label)
			}
			if got := c.Rate(succ[k].Rate); got != want[k].Rate {
				return qi, fmt.Errorf("state %s successor %d: rate %v, want %v", m.Describe(s), k, got, want[k].Rate)
			}
			ai := int(succ[k].ActiveInst)
			if aa := c.ActionName(ai, succ[k].ActiveAction); ai != want[k].ActiveInst || aa != want[k].ActiveAction {
				return qi, fmt.Errorf("state %s successor %d: active participant %s.%s, want %s.%s", m.Describe(s), k,
					m.InstanceName(ai), aa, m.InstanceName(want[k].ActiveInst), want[k].ActiveAction)
			}
			if !Equal(c.State(t), want[k].Next) {
				return qi, fmt.Errorf("state %s successor %d: target %s, want %s",
					m.Describe(s), k, m.Describe(c.State(t)), m.Describe(want[k].Next))
			}
			if key := fmt.Sprint(t); !seen[key] {
				seen[key] = true
				queue = append(queue, append([]uint32(nil), t...))
			}
		}
		for p, pr := range preds {
			got, gerr := c.Enabled(p, src)
			want, werr := m.LocallyEnabled(s, pr.Instance, pr.Action)
			if got != want || !sameErr(gerr, werr) {
				return qi, fmt.Errorf("state %s predicate %s.%s: compiled (%t, %v), want (%t, %v)",
					m.Describe(s), pr.Instance, pr.Action, got, gerr, want, werr)
			}
		}
	}
	return min(len(queue), maxStates), nil
}

// branchingBroadcastModel is an AND broadcast whose subscribers each
// offer the input twice, with different weights and continuations, so one
// output move fires once per combination of partner moves.
func branchingBroadcastModel(t *testing.T) *Model {
	t.Helper()
	pub := aemilia.NewElemTypePorts("Pub_Type",
		nil, []aemilia.Port{aemilia.AndPort("publish")},
		aemilia.NewBehavior("P", nil,
			aemilia.Pre("publish", rates.ExpRate(1), aemilia.Invoke("P"))))
	sub := aemilia.NewElemTypePorts("Sub_Type",
		[]aemilia.Port{aemilia.UniPort("hear")}, nil,
		aemilia.NewBehavior("S", nil,
			aemilia.Ch(
				aemilia.Pre("hear", rates.PassiveWeight(1), aemilia.Invoke("S")),
				aemilia.Pre("hear", rates.PassiveWeight(3),
					aemilia.Pre("digest", rates.ExpRate(2), aemilia.Invoke("S"))))))
	a := aemilia.NewArchiType("BranchingBroadcast",
		[]*aemilia.ElemType{pub, sub},
		[]*aemilia.Instance{
			aemilia.NewInstance("P", "Pub_Type"),
			aemilia.NewInstance("A", "Sub_Type"),
			aemilia.NewInstance("B", "Sub_Type"),
			aemilia.NewInstance("C", "Sub_Type"),
		},
		[]aemilia.Attachment{
			aemilia.Attach("P", "publish", "A", "hear"),
			aemilia.Attach("P", "publish", "B", "hear"),
			aemilia.Attach("P", "publish", "C", "hear"),
		})
	m, err := Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// activeSubscriberBroadcastModel is an AND broadcast with a passive
// publisher in which the middle subscriber alone is active, so the
// broadcast's timing — its active participant — belongs to a partner.
func activeSubscriberBroadcastModel(t *testing.T) *Model {
	t.Helper()
	pub := aemilia.NewElemTypePorts("Pub_Type",
		nil, []aemilia.Port{aemilia.AndPort("publish")},
		aemilia.NewBehavior("P", nil,
			aemilia.Pre("publish", rates.PassiveRate(), aemilia.Invoke("P"))))
	sub := func(name string, r rates.Rate) *aemilia.ElemType {
		return aemilia.NewElemTypePorts(name,
			[]aemilia.Port{aemilia.UniPort("hear")}, nil,
			aemilia.NewBehavior("S", nil,
				aemilia.Pre("hear", r,
					aemilia.Pre("digest", rates.ExpRate(2), aemilia.Invoke("S")))))
	}
	a := aemilia.NewArchiType("ActiveSubscriber",
		[]*aemilia.ElemType{pub, sub("Passive_Type", rates.PassiveRate()), sub("Active_Type", rates.ExpRate(3))},
		[]*aemilia.Instance{
			aemilia.NewInstance("P", "Pub_Type"),
			aemilia.NewInstance("A", "Passive_Type"),
			aemilia.NewInstance("B", "Active_Type"),
			aemilia.NewInstance("C", "Passive_Type"),
		},
		[]aemilia.Attachment{
			aemilia.Attach("P", "publish", "A", "hear"),
			aemilia.Attach("P", "publish", "B", "hear"),
			aemilia.Attach("P", "publish", "C", "hear"),
		})
	m, err := Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCompiledMatchesSuccessors(t *testing.T) {
	for _, c := range []struct {
		name string
		m    *Model
	}{
		{"ping-pong", pingPong(t)},
		{"buffer", buffer(t, 4)},
		{"broadcast-2", broadcastModel(t, 2)},
		{"broadcast-4", broadcastModel(t, 4)},
		{"or", orModel(t)},
		{"broadcast-branching", branchingBroadcastModel(t)},
		{"broadcast-active-subscriber", activeSubscriberBroadcastModel(t)},
	} {
		states, err := CompareCompiled(c.m, 10_000)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if states < 2 {
			t.Fatalf("%s: only %d state(s) compared", c.name, states)
		}
	}
}

// TestCompiledBroadcastErrors checks that a broadcast with two active
// participants fails in the compiled enumerator exactly as in Successors.
func TestCompiledBroadcastErrors(t *testing.T) {
	src := `ARCHI_TYPE Bad(void)
ARCHI_ELEM_TYPES
  ELEM_TYPE Pub_Type(void)
    BEHAVIOR P(void; void) = <publish, exp(1)> . P()
    INPUT_INTERACTIONS void
    OUTPUT_INTERACTIONS AND publish
  ELEM_TYPE Sub_Type(void)
    BEHAVIOR S(void; void) = <hear, exp(2)> . S()
    INPUT_INTERACTIONS UNI hear
    OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    P : Pub_Type();
    A : Sub_Type();
    B : Sub_Type()
  ARCHI_ATTACHMENTS
    FROM P.publish TO A.hear;
    FROM P.publish TO B.hear
END`
	a, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Successors(m.Initial()); err == nil {
		t.Fatal("Successors accepted a broadcast with two active participants")
	}
	if _, err := CompareCompiled(m, 10); err != nil {
		t.Fatal(err)
	}
}

// FuzzCompiledSuccessors parses arbitrary Æmilia text and, for every
// description that parses and elaborates, compares the compiled successor
// enumeration with Model.Successors on the first 2000 BFS states.
func FuzzCompiledSuccessors(f *testing.F) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.aem"))
	if err != nil || len(specs) == 0 {
		f.Fatalf("no specs found: %v", err)
	}
	for _, path := range specs {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		a, err := parser.Parse(src)
		if err != nil {
			return
		}
		m, err := Elaborate(a)
		if err != nil {
			return
		}
		if _, err := CompareCompiled(m, 2000); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCombineIDMatchesCombine checks the rate-id layer against
// rates.Combine. Every pair of a few hundred interned rates — more than
// the memo holds, so both the memoized and the uncached path run —
// combines to rates.Combine's result, first and when asked again, and an
// incompatible pair returns rates.Combine's error both times.
func TestCombineIDMatchesCombine(t *testing.T) {
	c := pingPong(t).Compile(nil)
	var ids []int32
	for k := 1; k <= 150; k++ {
		ids = append(ids, c.rateID(rates.PassiveWeight(float64(k))), c.rateID(rates.ExpRate(float64(k))))
	}
	ids = append(ids, c.rateID(rates.UntimedRate()), c.rateID(rates.Inf(1, 0.5)), c.rateID(rates.ExpSlot(1, 3)))
	for pass := range 2 {
		for _, a := range ids {
			for _, b := range ids {
				want, werr := rates.Combine(c.Rate(a), c.Rate(b))
				got, gerr := c.combineID(a, b)
				if !sameErr(gerr, werr) {
					t.Fatalf("pass %d: %v × %v: error %v, want %v", pass, c.Rate(a), c.Rate(b), gerr, werr)
				}
				if werr == nil && c.Rate(got) != want {
					t.Fatalf("pass %d: %v × %v = %v, want %v", pass, c.Rate(a), c.Rate(b), c.Rate(got), want)
				}
			}
		}
	}
	if c.memoW != maxMemoW {
		t.Errorf("memo width %d, want it widened to %d", c.memoW, maxMemoW)
	}
}

// TestActiveSyncErrorRepeats expands a state whose only transition is an
// active–active synchronization twice: both calls fail with the reference
// Successors' error, an *rates.IncompatibleError holding the two rates.
func TestActiveSyncErrorRepeats(t *testing.T) {
	p := aemilia.NewElemType("P", nil, []string{"a"},
		aemilia.NewBehavior("PB", nil, aemilia.Pre("a", rates.ExpRate(1), aemilia.Invoke("PB"))))
	q := aemilia.NewElemType("Q", []string{"a"}, nil,
		aemilia.NewBehavior("QB", nil, aemilia.Pre("a", rates.ExpRate(2), aemilia.Invoke("QB"))))
	a := aemilia.NewArchiType("A",
		[]*aemilia.ElemType{p, q},
		[]*aemilia.Instance{aemilia.NewInstance("P1", "P"), aemilia.NewInstance("Q1", "Q")},
		[]aemilia.Attachment{aemilia.Attach("P1", "a", "Q1", "a")})
	m, err := Elaborate(a)
	if err != nil {
		t.Fatal(err)
	}
	_, werr := m.Successors(m.Initial())
	c := m.Compile(nil)
	t0 := c.Initial()
	for call := range 2 {
		_, _, err := c.Successors(t0, nil, nil)
		if err == nil || !sameErr(err, werr) {
			t.Fatalf("call %d: error %v, want %v", call, err, werr)
		}
		var ie *rates.IncompatibleError
		if !errors.As(err, &ie) || ie.A != rates.ExpRate(1) || ie.B != rates.ExpRate(2) {
			t.Fatalf("call %d: %v is not the incompatibility of exp(1) and exp(2)", call, err)
		}
	}
}

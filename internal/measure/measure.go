// Package measure implements the reward-based performance-measure
// companion language of the paper (Sect. 4):
//
//	MEASURE throughput IS
//	  ENABLED(C.process_result_packet) -> TRANS_REWARD(1);
//	MEASURE energy IS
//	  ENABLED(S.monitor_idle_server)   -> STATE_REWARD(2)
//	  ENABLED(S.monitor_busy_server)   -> STATE_REWARD(3)
//
// A STATE_REWARD clause accrues its value per unit of time while the named
// action is locally enabled; a TRANS_REWARD clause accrues its value each
// time a transition involving the named action fires. Measures evaluate
// exactly on a solved CTMC and are estimated by the simulation engine.
package measure

import (
	"fmt"
	"strings"

	"repro/internal/ctmc"
	"repro/internal/lts"
	"repro/internal/stats"
)

// RewardKind selects how a clause accrues reward.
type RewardKind int

// Reward kinds.
const (
	// StateReward accrues per unit time while the predicate holds.
	StateReward RewardKind = iota + 1
	// TransReward accrues per firing of a matching transition.
	TransReward
)

// String returns the source-level keyword of the kind.
func (k RewardKind) String() string {
	switch k {
	case StateReward:
		return "STATE_REWARD"
	case TransReward:
		return "TRANS_REWARD"
	default:
		return "unknown"
	}
}

// Clause is one reward clause of a measure.
type Clause struct {
	// Instance and Action name the predicate ENABLED(Instance.Action).
	Instance, Action string
	// Kind selects state or transition reward.
	Kind RewardKind
	// Value is the reward value.
	Value float64
}

// Pred returns the canonical "Instance.Action" predicate name.
func (c Clause) Pred() string { return c.Instance + "." + c.Action }

// Measure is a named list of reward clauses, or a derived ratio of two
// other measures (MEASURE x IS RATIO(num, den) — e.g. energy per request
// as RATIO(energy, throughput)).
type Measure struct {
	// Name identifies the measure.
	Name string
	// Clauses are accumulated additively (empty for derived measures).
	Clauses []Clause
	// Derived marks a ratio measure; Num and Den name its operands.
	Derived  bool
	Num, Den string
}

// StatePreds returns the generation-time predicates the measure's
// STATE_REWARD clauses require.
func (m Measure) StatePreds() []lts.StatePred {
	var out []lts.StatePred
	for _, c := range m.Clauses {
		if c.Kind == StateReward {
			out = append(out, lts.StatePred{Instance: c.Instance, Action: c.Action})
		}
	}
	return out
}

// StatePreds collects the predicates required by a set of measures,
// deduplicated.
func StatePreds(ms []Measure) []lts.StatePred {
	seen := make(map[lts.StatePred]bool)
	var out []lts.StatePred
	for _, m := range ms {
		for _, p := range m.StatePreds() {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// TransPreds collects the "Instance.Action" pairs named by TRANS_REWARD
// clauses of a set of measures, deduplicated: the transition activities an
// analysis observes through throughputs.
func TransPreds(ms []Measure) []string {
	seen := make(map[string]bool)
	var out []string
	for _, m := range ms {
		for _, c := range m.Clauses {
			if c.Kind != TransReward {
				continue
			}
			if p := c.Pred(); !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// ObservedMatcher returns a matcher selecting every transition label that
// involves a TRANS_REWARD predicate of ms — the label set a minimizing
// generation must keep computable (lts.FoldOptions.Observed).
func ObservedMatcher(ms []Measure) func(label string) bool {
	preds := TransPreds(ms)
	return func(label string) bool {
		for _, p := range preds {
			if lts.LabelInvolves(label, p) {
				return true
			}
		}
		return false
	}
}

// Compiled is a measure set compiled against one chain structure: each
// STATE_REWARD clause as the tangible states where its predicate holds
// (ctmc.StateSet), each TRANS_REWARD clause as the ordered firings of the
// transitions involving its action (ctmc.Selection), and each ratio's
// operands checked. Evaluation replays the float additions of a per-call
// walk in the same order, so its values are bit-identical to one. A
// Compiled holds no rates, so it serves the chain it was compiled on at
// any rate point and from any number of goroutines at once.
type Compiled struct {
	ms      []Measure
	clauses [][]clause // per measure of ms; nil for a derived one
	trans   []*ctmc.Selection
}

// clause is one compiled reward clause: a STATE_REWARD clause's states,
// or, when trans >= 0, a TRANS_REWARD clause's selection in
// Compiled.trans.
type clause struct {
	value  float64
	states ctmc.StateSet
	trans  int
}

// Compile compiles a set of measures against a chain. It fails on a
// predicate the LTS was not generated with, and on a ratio whose operands
// are not both defined before it. Clauses that name
// one predicate share its compiled form, and every TRANS_REWARD
// selection is compiled in one walk over the chain (ctmc.SelectAll).
func Compile(ms []Measure, c *ctmc.CTMC) (*Compiled, error) {
	cm := &Compiled{ms: ms, clauses: make([][]clause, len(ms))}
	states := make(map[string]ctmc.StateSet)
	transAt := make(map[string]int)
	var matches []func(string) bool
	defined := make(map[string]bool, len(ms))
	for i, m := range ms {
		if m.Derived {
			continue
		}
		clauses := make([]clause, len(m.Clauses))
		for k, cl := range m.Clauses {
			pred := cl.Pred()
			clauses[k] = clause{value: cl.Value, trans: -1}
			switch cl.Kind {
			case StateReward:
				set, ok := states[pred]
				if !ok {
					var err error
					if set, err = c.SelectStates(pred); err != nil {
						return nil, fmt.Errorf("measure %s: %w", m.Name, err)
					}
					states[pred] = set
				}
				clauses[k].states = set
			case TransReward:
				at, ok := transAt[pred]
				if !ok {
					at = len(matches)
					transAt[pred] = at
					matches = append(matches, func(label string) bool { return lts.LabelInvolves(label, pred) })
				}
				clauses[k].trans = at
			default:
				return nil, fmt.Errorf("measure %s: invalid reward kind", m.Name)
			}
		}
		cm.clauses[i] = clauses
		defined[m.Name] = true
	}
	for _, m := range ms {
		if !m.Derived {
			continue
		}
		if !defined[m.Num] || !defined[m.Den] {
			return nil, fmt.Errorf("measure %s: ratio operands %q/%q not both defined before it",
				m.Name, m.Num, m.Den)
		}
		defined[m.Name] = true
	}
	if len(matches) > 0 {
		cm.trans = c.SelectAll(nil, matches...)
	}
	return cm, nil
}

// Eval evaluates the compiled set on pi, a solution of c — the chain the
// set was compiled on — at the rate point point (nil for the built-in
// rates; see ctmc.CTMC.Flow).
func (cm *Compiled) Eval(c *ctmc.CTMC, pi, point []float64) map[string]float64 {
	out := make(map[string]float64, len(cm.ms))
	f := c.Flow(pi, point)
	for i, m := range cm.ms {
		if m.Derived {
			continue
		}
		total := 0.0
		for _, cl := range cm.clauses[i] {
			if cl.trans >= 0 {
				total += cl.value * f.Throughput(cm.trans[cl.trans])
			} else {
				total += cl.value * cl.states.Prob(pi)
			}
		}
		out[m.Name] = total
	}
	for _, m := range cm.ms {
		if !m.Derived {
			continue
		}
		if den := out[m.Den]; den == 0 {
			out[m.Name] = 0
		} else {
			out[m.Name] = out[m.Num] / den
		}
	}
	return out
}

// DeriveIntervals resolves the derived (ratio) measures of ms against a
// map of base estimates, propagating uncertainty to first order: the
// relative half-width of a ratio is the sum of the operands' relative
// half-widths. The map is extended in place and returned.
func DeriveIntervals(ms []Measure, base map[string]stats.Interval) (map[string]stats.Interval, error) {
	for _, m := range ms {
		if !m.Derived {
			continue
		}
		num, okN := base[m.Num]
		den, okD := base[m.Den]
		if !okN || !okD {
			return nil, fmt.Errorf("measure %s: ratio operands %q/%q not both estimated",
				m.Name, m.Num, m.Den)
		}
		ci := stats.Interval{Level: num.Level, N: num.N}
		if den.Mean != 0 {
			ci.Mean = num.Mean / den.Mean
			rel := 0.0
			if num.Mean != 0 {
				rel += abs(num.HalfWidth / num.Mean)
			}
			rel += abs(den.HalfWidth / den.Mean)
			ci.HalfWidth = abs(ci.Mean) * rel
		}
		base[m.Name] = ci
	}
	return base, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Parse reads measure definitions in the companion-language syntax shown
// in the package comment. Clauses may be separated by whitespace; measures
// end at the next MEASURE keyword or end of input; a trailing ";" after a
// measure is accepted.
func Parse(src string) ([]Measure, error) {
	toks := tokenize(src)
	p := &parser{toks: toks}
	var out []Measure
	for !p.eof() {
		m, err := p.parseMeasure()
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("measure: no MEASURE definitions found")
	}
	return out, nil
}

func tokenize(src string) []string {
	src = strings.NewReplacer(
		"(", " ( ", ")", " ) ", ";", " ; ", "->", " -> ", ",", " , ",
	).Replace(src)
	return strings.Fields(src)
}

type parser struct {
	toks []string
	pos  int
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() string {
	if p.eof() {
		return ""
	}
	return p.toks[p.pos]
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expect(want string) error {
	if got := p.next(); got != want {
		return fmt.Errorf("measure: expected %q, found %q", want, got)
	}
	return nil
}

func (p *parser) parseMeasure() (Measure, error) {
	var m Measure
	if err := p.expect("MEASURE"); err != nil {
		return m, err
	}
	m.Name = p.next()
	if m.Name == "" {
		return m, fmt.Errorf("measure: missing measure name")
	}
	if err := p.expect("IS"); err != nil {
		return m, err
	}
	if p.peek() == "RATIO" {
		p.next()
		if err := p.expect("("); err != nil {
			return m, err
		}
		m.Num = strings.TrimSuffix(p.next(), ",")
		if p.peek() == "," {
			p.next()
		}
		m.Den = p.next()
		if err := p.expect(")"); err != nil {
			return m, err
		}
		if p.peek() == ";" {
			p.next()
		}
		if m.Num == "" || m.Den == "" {
			return m, fmt.Errorf("measure %s: RATIO needs two operand names", m.Name)
		}
		m.Derived = true
		return m, nil
	}
	for {
		if p.eof() || p.peek() == "MEASURE" {
			break
		}
		if p.peek() == ";" {
			p.next()
			break
		}
		cl, err := p.parseClause()
		if err != nil {
			return m, err
		}
		m.Clauses = append(m.Clauses, cl)
	}
	if len(m.Clauses) == 0 {
		return m, fmt.Errorf("measure %s: no clauses", m.Name)
	}
	return m, nil
}

func (p *parser) parseClause() (Clause, error) {
	var c Clause
	if err := p.expect("ENABLED"); err != nil {
		return c, err
	}
	if err := p.expect("("); err != nil {
		return c, err
	}
	pred := p.next()
	dot := strings.IndexByte(pred, '.')
	if dot <= 0 || dot == len(pred)-1 {
		return c, fmt.Errorf("measure: predicate %q is not of the form Instance.action", pred)
	}
	c.Instance, c.Action = pred[:dot], pred[dot+1:]
	if err := p.expect(")"); err != nil {
		return c, err
	}
	if err := p.expect("->"); err != nil {
		return c, err
	}
	switch kw := p.next(); kw {
	case "STATE_REWARD":
		c.Kind = StateReward
	case "TRANS_REWARD":
		c.Kind = TransReward
	default:
		return c, fmt.Errorf("measure: expected STATE_REWARD or TRANS_REWARD, found %q", kw)
	}
	if err := p.expect("("); err != nil {
		return c, err
	}
	if _, err := fmt.Sscanf(p.next(), "%g", &c.Value); err != nil {
		return c, fmt.Errorf("measure: invalid reward value: %w", err)
	}
	if err := p.expect(")"); err != nil {
		return c, err
	}
	return c, nil
}

package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"repro/internal/aemilia"
	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/measure"
)

// Spec is the canonical description of one analysis pipeline: which model
// to build, which measures to evaluate, and how to generate and solve.
// Everything in it that can change a result's bits participates in the
// content-addressed SpecHash, so two Specs with equal hashes denote the
// same staged artifacts — elaborated model, LTS, chain, Phase2 report —
// and a Manager collapses them onto one Session state.
type Spec struct {
	// Key names the model source canonically: a builder identifier plus
	// its full parameter vector (e.g. "rpc:models.RPCParams{...}"), or a
	// content hash of a textual .aem description. Two specs with the same
	// Key must build equivalent models. An empty Key marks the spec as
	// ephemeral: NewSession accepts it, Manager.Open refuses to intern it.
	Key string
	// Build parses/constructs the architectural description. It runs at
	// most once per session state (single-flight) and must be a pure
	// function of Key.
	Build func() (*aemilia.ArchiType, error)
	// Model optionally supplies an already-elaborated model instead of
	// Build — the entry point for callers that hold one (the CLI after
	// parsing a file, a benchmark that elaborates outside its timer).
	// Takes precedence over Build.
	Model *elab.Model
	// Measures are evaluated by Phase2 and Sweep; their STATE_REWARD
	// predicates are appended to the generation options, exactly as the
	// phase-2 entry points always did.
	Measures []measure.Measure
	// Gen tunes state-space generation. Ctx is scheduling-only (it only
	// cancels) and falls back to the session Config; it does not
	// participate in the hash.
	// Gen.Fold is semantic (it changes the generated LTS): its presence
	// and MaxDepth are hashed, but its Observed matcher is a function and
	// cannot be — specs that set Fold directly should be session-local.
	// The supported way to request folding is Minimize, which derives the
	// matcher canonically from Measures.
	Gen lts.GenerateOptions
	// Minimize enables compositional minimization: the session lumps each
	// component before composition (compose.Minimize, refined against the
	// Measures' state predicates) and generates with vanishing-state
	// folding observed through the Measures' TRANS_REWARD labels, so the
	// full product never materializes. The simulation phase always runs
	// on the full model — minimization only accelerates the Markovian
	// path, whose measures it preserves exactly. Semantic: hashed.
	Minimize bool
	// Solve tunes the steady-state solver. Ctx only cancels and falls
	// back to the session Config; the other fields (Tolerance,
	// MaxIterations) affect the result and are hashed. The solver has no
	// worker count, so a spec's results are the same at every
	// Config.Workers.
	Solve ctmc.SolveOptions
}

// SpecHash is the stable content address of a Spec: the hex-encoded
// SHA-256 of its canonical encoding. Equal hashes mean "same model, same
// generation semantics, same measures, same solver arithmetic" — the
// contract that makes sharing staged artifacts and cached results sound.
type SpecHash string

// Hash computes the spec's content address. The encoding is canonical:
// fields are written in a fixed order with length prefixes (no separator
// ambiguity), floats as their IEEE-754 bit patterns, and scheduling-only
// knobs (workers, contexts, lane widths) excluded — results are
// bit-identical at any of their values, so hashing them would only split
// identical work across sessions.
func (s Spec) Hash() SpecHash {
	h := sha256.New()
	hStr(h, s.Key)
	// Generation: everything that shapes the LTS.
	hU64(h, uint64(s.Gen.MaxStates))
	hBool(h, s.Minimize)
	hBool(h, s.Gen.Fold != nil)
	if s.Gen.Fold != nil {
		hU64(h, uint64(s.Gen.Fold.MaxDepth))
	}
	hU64(h, uint64(len(s.Gen.Predicates)))
	for _, p := range s.Gen.Predicates {
		hStr(h, p.Instance)
		hStr(h, p.Action)
	}
	// Measures: names, clause structure, reward values, ratio wiring.
	hU64(h, uint64(len(s.Measures)))
	for _, m := range s.Measures {
		hStr(h, m.Name)
		hBool(h, m.Derived)
		hStr(h, m.Num)
		hStr(h, m.Den)
		hU64(h, uint64(len(m.Clauses)))
		for _, c := range m.Clauses {
			hStr(h, c.Instance)
			hStr(h, c.Action)
			hU64(h, uint64(c.Kind))
			hF64(h, c.Value)
		}
	}
	// Solver: the result-affecting fields only.
	hF64(h, s.Solve.Tolerance)
	hU64(h, uint64(s.Solve.MaxIterations))
	return SpecHash(hex.EncodeToString(h.Sum(nil)))
}

func hU64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func hF64(h hash.Hash, v float64) { hU64(h, math.Float64bits(v)) }

func hStr(h hash.Hash, s string) {
	hU64(h, uint64(len(s)))
	h.Write([]byte(s))
}

func hBool(h hash.Hash, b bool) {
	if b {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

// encodePoint renders a rate vector as its exact bit pattern — the store
// key component for one sweep point. Two points encode
// equal iff they are bit-identical, the same equality the solver sees.
func encodePoint(point []float64) string {
	buf := make([]byte, 8*len(point))
	for i, v := range point {
		binary.BigEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return string(buf)
}

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
	"repro/internal/measure"
)

// Spec is the canonical description of one analysis pipeline: which model
// to analyse, which measures to evaluate, and how to solve. A session's
// result store keys it by its content (storeHash): two specs whose
// descriptions format alike and whose measures, Minimize and solver
// tolerance agree share their stored results.
type Spec struct {
	// Arch is the architectural description the session elaborates. It
	// is also what a result store keys the spec by.
	Arch *aemilia.ArchiType
	// Model optionally supplies an already-elaborated model instead of
	// Arch — the entry point for callers that hold one (a benchmark that
	// elaborates outside its timer). Takes precedence over Arch, and
	// cannot be keyed into a result store.
	Model *elab.Model
	// Measures are evaluated by Phase2 and Sweep; their STATE_REWARD
	// predicates are what generation labels states with, so a spec that
	// reads a state predicate off the chain declares it as a measure.
	Measures []measure.Measure
	// Minimize makes the session generate the elaborated model with
	// vanishing-state folding, observed through the Measures' TRANS_REWARD
	// labels, so the vanishing states of the full product are never
	// interned. The simulation phase always runs on the full model —
	// folding only accelerates the Markovian path, whose measures it
	// preserves exactly. The experiment suite and dpmassess solve always
	// set it, and a spec without it is the unfolded oracle of their
	// tests. The field stays because perfbench sets it per query; it goes
	// with ROADMAP item 1(c).
	Minimize bool
	// Solve tunes the steady-state solver. Its Ctx is ignored: a session
	// solves under Config.Ctx. The solver has no worker count, so a
	// spec's results are the same at every Config.Workers.
	Solve ctmc.SolveOptions
}

// storeHash is the Model half of the spec's ResultKeys, given its
// formatted architectural description: the hex SHA-256 of a canonical
// encoding of everything beyond the point that can change a result's
// bits. Fields are written in a fixed order with length prefixes (no
// separator ambiguity) and floats as their IEEE-754 bit patterns.
// Scheduling (workers, contexts) is left out — results are bit-identical
// at any of its values. So is the iteration budget, because it only caps
// a solve and never changes a converged value: a run that failed to
// converge is finished by resuming it with a larger budget. The
// tolerance is resolved, so the default spelled out keys like the
// default left implicit. The store format version is hashed too, so a
// format change can never reuse another version's results.
func (s Spec) storeHash(desc string) string {
	h := sha256.New()
	hStr(h, storeMagic)
	hStr(h, desc)
	hBool(h, s.Minimize)
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
	tol := s.Solve.Tolerance
	if tol <= 0 {
		tol = ctmc.DefaultTolerance
	}
	hF64(h, tol)
	return hex.EncodeToString(h.Sum(nil))
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

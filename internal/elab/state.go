package elab

import (
	"encoding/binary"
	"strconv"
	"strings"

	"repro/internal/expr"
)

// AppendKey appends the canonical byte-string encoding of a global state
// to dst and returns the extended slice. The encoding is the interning key
// of a state table: equal states produce equal encodings. Appending to a
// caller-owned scratch buffer keeps the hot exploration path
// allocation-free.
func (m *Model) AppendKey(dst []byte, s State) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, c := range s {
		n := binary.PutUvarint(tmp[:], uint64(c.Node))
		dst = append(dst, tmp[:n]...)
		dst = append(dst, byte(len(c.Args)))
		for _, v := range c.Args {
			switch v.Kind {
			case expr.TypeInt:
				dst = append(dst, 'i')
				n := binary.PutVarint(tmp[:], v.Int)
				dst = append(dst, tmp[:n]...)
			case expr.TypeBool:
				if v.Bool {
					dst = append(dst, 'T')
				} else {
					dst = append(dst, 'F')
				}
			}
		}
	}
	return dst
}

// Key returns a canonical byte-string encoding of a global state, suitable
// as a map key during state-space exploration.
func (m *Model) Key(s State) string {
	return string(m.AppendKey(nil, s))
}

// Describe renders a global state readably, for diagnostics: each instance
// as name=Behaviour(args)[+k] where +k marks a position k nodes into the
// behaviour body (0 = at the body, i.e. at the start of the behaviour).
func (m *Model) Describe(s State) string {
	var sb strings.Builder
	for i, c := range s {
		if i > 0 {
			sb.WriteString(", ")
		}
		if m.quot != nil {
			sb.WriteString(m.insts[i].name)
			sb.WriteByte('=')
			sb.WriteString(m.quot[i].Descs[c.Node])
			continue
		}
		info := m.nodes[c.Node]
		sb.WriteString(m.insts[i].name)
		sb.WriteByte('=')
		sb.WriteString(info.behavior.Name)
		sb.WriteByte('(')
		for j, v := range c.Args {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte(')')
		if off := c.Node - info.behavior.Body.ID(); off != 0 {
			sb.WriteString("+" + strconv.Itoa(off))
		}
	}
	return sb.String()
}

// Equal reports whether two global states are identical.
func Equal(a, b State) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || len(a[i].Args) != len(b[i].Args) {
			return false
		}
		for j := range a[i].Args {
			if !a[i].Args[j].Equal(b[i].Args[j]) {
				return false
			}
		}
	}
	return true
}

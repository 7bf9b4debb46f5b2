package elab

import (
	"encoding/binary"
	"strconv"
	"strings"

	"repro/internal/expr"
)

// AppendLocalKey appends the canonical byte-string encoding of one
// instance's local configuration to dst and returns the extended slice:
// equal configurations produce equal encodings. It is the interning key of
// the local configuration tables of Compile and of compositional
// minimization; appending to a caller-owned buffer keeps interning
// allocation-free.
func (m *Model) AppendLocalKey(dst []byte, c LocalConfig) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.Node))
	dst = append(dst, byte(len(c.Args)))
	for _, v := range c.Args {
		switch v.Kind {
		case expr.TypeInt:
			dst = append(dst, 'i')
			dst = binary.AppendVarint(dst, v.Int)
		case expr.TypeBool:
			if v.Bool {
				dst = append(dst, 'T')
			} else {
				dst = append(dst, 'F')
			}
		}
	}
	return dst
}

// Describe renders a global state readably, for diagnostics: each instance
// as name=Behaviour(args)[+k] where +k marks a position k nodes into the
// behaviour body (0 = at the body, i.e. at the start of the behaviour).
func (m *Model) Describe(s State) string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = m.DescribeLocal(i, c)
	}
	return strings.Join(parts, ", ")
}

// DescribeLocal renders one instance's local configuration (the
// single-instance analogue of Describe).
func (m *Model) DescribeLocal(i int, c LocalConfig) string {
	if m.quot != nil {
		return m.insts[i].name + "=" + m.quot[i].Descs[c.Node]
	}
	info := m.nodes[c.Node]
	var sb strings.Builder
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
	return sb.String()
}

package aemilia

import (
	"fmt"
	"strings"

	"repro/internal/expr"
)

// Format renders the description in .aem textual syntax. The output parses
// back to an equivalent description (see the parser subpackage), which the
// round-trip tests rely on. The whole text is written into one builder,
// grown once up front.
func Format(a *ArchiType) string {
	var sb strings.Builder
	sb.Grow(sizeHint(a))
	sb.WriteString("ARCHI_TYPE ")
	sb.WriteString(a.Name)
	sb.WriteString("(void)\n\nARCHI_ELEM_TYPES\n\n")
	for _, et := range a.ElemTypes {
		formatElemType(&sb, et)
		sb.WriteString("\n")
	}
	sb.WriteString("ARCHI_TOPOLOGY\n\n  ARCHI_ELEM_INSTANCES\n")
	for i, in := range a.Instances {
		sb.WriteString("    ")
		sb.WriteString(in.Name)
		sb.WriteString(" : ")
		sb.WriteString(in.TypeName)
		sb.WriteString("(")
		formatArgs(&sb, in.Args)
		sb.WriteString(")")
		formatSep(&sb, i, len(a.Instances))
	}
	sb.WriteString("\n  ARCHI_ATTACHMENTS\n")
	for i, at := range a.Attachments {
		sb.WriteString("    FROM ")
		sb.WriteString(at.FromInstance)
		sb.WriteString(".")
		sb.WriteString(at.FromPort)
		sb.WriteString(" TO ")
		sb.WriteString(at.ToInstance)
		sb.WriteString(".")
		sb.WriteString(at.ToPort)
		formatSep(&sb, i, len(a.Attachments))
	}
	sb.WriteString("\nEND\n")
	return sb.String()
}

// sizeHint estimates Format's output length from generous per-item
// sizes: the shipped specs print under 150 bytes of header per element
// type, 250 bytes per behaviour and 40 per instance or attachment line.
func sizeHint(a *ArchiType) int {
	n := 100 + 40*(len(a.Instances)+len(a.Attachments))
	for _, et := range a.ElemTypes {
		n += 150 + 250*len(et.Behaviors)
	}
	return n
}

// formatSep ends the i-th of n list lines: every line but the last
// carries a semicolon.
func formatSep(sb *strings.Builder, i, n int) {
	if i < n-1 {
		sb.WriteString(";")
	}
	sb.WriteString("\n")
}

func formatElemType(sb *strings.Builder, et *ElemType) {
	sb.WriteString("  ELEM_TYPE ")
	sb.WriteString(et.Name)
	sb.WriteString("(void)\n    BEHAVIOR\n")
	for i, b := range et.Behaviors {
		sb.WriteString("      ")
		sb.WriteString(b.Name)
		sb.WriteString("(")
		formatParams(sb, b.Params)
		sb.WriteString("; void) =\n        ")
		formatProcess(sb, b.Body, 8)
		formatSep(sb, i, len(et.Behaviors))
	}
	sb.WriteString("    INPUT_INTERACTIONS ")
	formatPorts(sb, et.InPorts, et.Inputs)
	sb.WriteString("\n    OUTPUT_INTERACTIONS ")
	formatPorts(sb, et.OutPorts, et.Outputs)
	sb.WriteString("\n")
}

// formatPorts writes "void" or the multiplicity groups of the
// declarations, "UNI a; b AND c": ports when given, else names as UNI
// ports.
func formatPorts(sb *strings.Builder, ports []Port, names []string) {
	if len(ports) == 0 {
		if len(names) == 0 {
			sb.WriteString("void")
			return
		}
		sb.WriteString("UNI ")
		for i, n := range names {
			if i > 0 {
				sb.WriteString("; ")
			}
			sb.WriteString(n)
		}
		return
	}
	var prev Multiplicity
	for i, p := range ports {
		mult := p.Mult
		if mult == 0 {
			mult = Uni
		}
		switch {
		case i == 0:
		case mult == prev:
			sb.WriteString("; ")
		default:
			sb.WriteString(" ")
		}
		if i == 0 || mult != prev {
			sb.WriteString(mult.String())
			sb.WriteString(" ")
		}
		sb.WriteString(p.Name)
		prev = mult
	}
}

func formatParams(sb *strings.Builder, ps []Param) {
	if len(ps) == 0 {
		sb.WriteString("void")
		return
	}
	for i, p := range ps {
		if i > 0 {
			sb.WriteString(", ")
		}
		if p.Type == expr.TypeBool {
			sb.WriteString("boolean ")
		} else {
			sb.WriteString("integer ")
		}
		sb.WriteString(p.Name)
	}
}

func formatArgs(sb *strings.Builder, args []expr.Expr) {
	if len(args) == 0 {
		sb.WriteString("void")
		return
	}
	for i, a := range args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
}

// blanks is a run of spaces that formatIndent slices indentation from.
const blanks = "                                "

func formatIndent(sb *strings.Builder, n int) {
	for n > len(blanks) {
		sb.WriteString(blanks)
		n -= len(blanks)
	}
	sb.WriteString(blanks[:n])
}

// formatProcess writes the process term p; a choice's branches go one a
// line, indented two spaces past indent, the current line's indentation.
func formatProcess(sb *strings.Builder, p Process, indent int) {
	switch x := p.(type) {
	case *Stop:
		sb.WriteString("stop")
	case *Prefix:
		sb.WriteString("<")
		sb.WriteString(x.Act.Name)
		sb.WriteString(", ")
		sb.WriteString(x.Act.Rate.String())
		sb.WriteString("> . ")
		formatProcess(sb, x.Cont, indent)
	case *Choice:
		sb.WriteString("choice {\n")
		for i, br := range x.Branches {
			if i > 0 {
				sb.WriteString(",\n")
			}
			formatIndent(sb, indent+2)
			formatProcess(sb, br, indent+2)
		}
		sb.WriteString("\n")
		formatIndent(sb, indent)
		sb.WriteString("}")
	case *Guarded:
		sb.WriteString("cond(")
		sb.WriteString(x.Cond.String())
		sb.WriteString(") -> ")
		formatProcess(sb, x.Body, indent)
	case *Call:
		sb.WriteString(x.Name)
		sb.WriteString("(")
		formatArgs(sb, x.Args)
		sb.WriteString(")")
	default:
		fmt.Fprintf(sb, "<?%T>", p)
	}
}

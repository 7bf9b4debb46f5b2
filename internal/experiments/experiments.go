// Package experiments regenerates every table and figure of the paper's
// evaluation: the Sect. 3 noninterference verdicts and diagnostic formula,
// the Markovian comparisons of Fig. 3 (left) and Fig. 4, the
// cross-validation of Fig. 5, the general-model simulations of Fig. 3
// (right) and Fig. 6, and the energy/quality trade-off curves of Fig. 7
// and Fig. 8, plus the policy, battery and start-up transient extensions.
// Each experiment returns structured results; the catalog (catalog.go)
// lists them once, and RunStudy, the command line of cmd/rpcstudy and
// cmd/streamingstudy, runs and prints them from it.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/aemilia"
	"repro/internal/lts"
	"repro/internal/models"
	"repro/internal/noninterference"
	"repro/internal/pipeline"
)

// Scale selects how much work an experiment does: Quick keeps state
// spaces and simulation horizons small (tests, smoke runs); Full matches
// the paper's setting.
type Scale int

// Experiment scales.
const (
	Quick Scale = iota + 1
	Full
)

// rpcSpec is the noninterference specification shared by the rpc
// experiments: the DPM's shutdown command is high, the client's actions
// are the low observables.
func rpcSpec() noninterference.Spec {
	return noninterference.Spec{
		High: lts.LabelMatcherByNames(models.RPCHighLabels()...),
		Low:  lts.LabelMatcherByInstance("C"),
	}
}

// Sect3Result reports one noninterference verdict of paper Sect. 3.
type Sect3Result struct {
	// Name identifies the model ("rpc simplified", "rpc revised",
	// "streaming").
	Name string
	// Transparent is the verdict; Formula the diagnostic when it fails.
	Transparent bool
	Formula     string
	// States and Transitions size the analysed state space.
	States, Transitions int
}

// phase1 builds the named untimed model and runs the functional phase on
// it against the noninterference spec.
func (r *Runner) phase1(name string, build func() (*aemilia.ArchiType, error), ni noninterference.Spec) (*Sect3Result, error) {
	a, err := build()
	if err != nil {
		return nil, err
	}
	rep, err := pipeline.NewSession(pipeline.Spec{Arch: a}, r.cfg).Phase1(ni)
	if err != nil {
		return nil, err
	}
	return &Sect3Result{
		Name:        name,
		Transparent: rep.Result.Transparent,
		Formula:     rep.Result.FormulaText,
		States:      rep.States,
		Transitions: rep.Transitions,
	}, nil
}

// RPCNoninterferenceSimplified reproduces the failing check of Sect. 3.1,
// including the paper's distinguishing formula.
func (r *Runner) RPCNoninterferenceSimplified() (*Sect3Result, error) {
	return r.phase1("rpc simplified", models.BuildRPCSimplified, rpcSpec())
}

// RPCNoninterferenceRevised reproduces the passing check of Sect. 3.1.
func (r *Runner) RPCNoninterferenceRevised() (*Sect3Result, error) {
	p := models.DefaultRPCParams()
	p.Mode = models.Functional
	return r.phase1("rpc revised", func() (*aemilia.ArchiType, error) { return models.BuildRPCRevised(p) }, rpcSpec())
}

// StreamingNoninterference reproduces the passing check of Sect. 3.2.
// Quick scale shrinks the buffers to 2, which keeps state-space generation
// small for smoke runs; Full uses the paper's capacity of 10.
func (r *Runner) StreamingNoninterference(scale Scale) (*Sect3Result, error) {
	p := models.DefaultStreamingParams()
	p.Mode = models.Functional
	if scale == Quick {
		p.APCapacity, p.ClientCapacity = 2, 2
	}
	return r.phase1("streaming", func() (*aemilia.ArchiType, error) { return models.BuildStreaming(p) }, noninterference.Spec{
		High: lts.LabelMatcherByNames(models.StreamingHighLabels()...),
		Low:  lts.LabelMatcherByInstance("C"),
	})
}

// FormatTable renders rows of columns as an aligned ASCII table.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteString("\n")
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

// FormatCSV renders rows as comma-separated values with a header line.
func FormatCSV(header []string, rows [][]string) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(header, ","))
	sb.WriteString("\n")
	for _, row := range rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteString("\n")
	}
	return sb.String()
}

func f(v float64) string { return fmt.Sprintf("%.6g", v) }

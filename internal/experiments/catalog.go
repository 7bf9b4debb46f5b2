package experiments

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"repro/internal/pipeline"
)

// cut is the workload one catalog run puts on its experiments: the model
// scale, the sweep grid and the simulation settings. A nil grid selects
// each experiment's default grid (the paper's), zero sim fields take the
// model's simulation defaults, and a zero budget takes the battery
// study's 5000.
type cut struct {
	scale  Scale
	grid   []float64
	sim    pipeline.SimSettings
	budget float64
}

// render formats a header and rows as one text table.
type render func(header []string, rows [][]string) string

// phase is a set of the methodology's three phases (paper Fig. 1).
type phase uint8

const (
	phaseFunctional phase = 1 << iota // noninterference on the untimed model
	phaseMarkovian                    // CTMC solution
	phaseGeneral                      // discrete-event simulation
)

// entry is one experiment of the catalog: a paper figure, a Sect. 3
// check or one of the extensions.
type entry struct {
	name   string // the -experiment value
	figure string // the paper's figure or section, or "Extension"
	title  string // the rest of the banner line
	phases phase
	// inputs name the entries of the same study whose results run
	// consumes, in this order; each precedes its consumer in the study.
	inputs []string
	// run returns the structured result and the text block the CLI
	// prints below the banner.
	run func(r *Runner, c cut, in []any, rend render) (any, string, error)
}

func (e *entry) banner() string { return "== " + e.figure + ": " + e.title + " ==" }

// A Study is one of the paper's two case studies: the catalog entries of
// its CLI in print order, and the cuts that CLI runs them at.
type Study struct {
	name        string
	quickHelp   string
	full, quick cut
	entries     []*entry
}

// entry returns the study's entry of the given name, or nil.
func (s *Study) entry(name string) *entry {
	i := slices.IndexFunc(s.entries, func(e *entry) bool { return e.name == name })
	if i < 0 {
		return nil
	}
	return s.entries[i]
}

// tabled makes the run function of an entry whose text block is one
// table of its result.
func tabled[T any](run func(r *Runner, c cut) (T, error), rows func(T) ([]string, [][]string)) func(*Runner, cut, []any, render) (any, string, error) {
	return func(r *Runner, c cut, _ []any, rend render) (any, string, error) {
		v, err := run(r, c)
		if err != nil {
			return nil, "", err
		}
		return v, rend(rows(v)) + "\n", nil
	}
}

// verdict is the text of one Sect. 3 check: its verdict line and, when
// the check fails, the distinguishing formula.
func verdict(name string, res *Sect3Result) string {
	s := fmt.Sprintf("%s (%d states): transparent=%t\n", name, res.States, res.Transparent)
	if !res.Transparent {
		s += "distinguishing formula:\n  " + res.Formula + "\n"
	}
	return s
}

// RPCStudy regenerates the rpc results: the Sect. 3.1 checks, Fig. 3
// (both sides), Fig. 5, the policy and battery extensions, and Fig. 7.
var RPCStudy = &Study{
	name:      "rpc",
	quickHelp: "shorter simulations (smoke run)",
	full:      cut{scale: Full},
	quick:     cut{scale: Quick, sim: pipeline.SimSettings{RunLength: 4000, Replications: 8}},
	entries: []*entry{{
		name: "sect3", figure: "Sect. 3.1", title: "noninterference", phases: phaseFunctional,
		run: func(r *Runner, _ cut, _ []any, _ render) (any, string, error) {
			simplified, err := r.RPCNoninterferenceSimplified()
			if err != nil {
				return nil, "", err
			}
			revised, err := r.RPCNoninterferenceRevised()
			if err != nil {
				return nil, "", err
			}
			return []*Sect3Result{simplified, revised},
				verdict("simplified rpc", simplified) + verdict("revised rpc", revised) + "\n", nil
		},
	}, {
		name: "fig3markov", figure: "Fig. 3 (left)", title: "Markovian rpc comparison", phases: phaseMarkovian,
		run: tabled(func(r *Runner, c cut) ([]Comparison, error) {
			return r.compareMarkov(rpcCase, c.scale, c.grid)
		}, rpcCase.rows),
	}, {
		name: "fig3general", figure: "Fig. 3 (right)", title: "general rpc comparison (deterministic timings)", phases: phaseGeneral,
		run: tabled(func(r *Runner, c cut) ([]Comparison, error) {
			return r.compareGeneral(rpcCase, c.scale, c.grid, c.sim)
		}, rpcCase.rows),
	}, {
		name: "fig5", figure: "Fig. 5", title: "validation of the general model (exponential durations)", phases: phaseMarkovian | phaseGeneral,
		run: tabled(func(r *Runner, c cut) ([]ValidationPoint, error) { return r.Fig5Validation(c.grid, c.sim) }, Fig5Rows),
	}, {
		name: "policies", figure: "Extension", title: "DPM policy ablation (Markovian, timeout/period 5 ms)", phases: phaseMarkovian,
		run: tabled(func(r *Runner, _ cut) ([]PolicyPoint, error) { return r.PolicyComparison(5) }, PolicyRows),
	}, {
		name: "battery", figure: "Extension", title: "battery lifetime (transient analysis, budget 5000)", phases: phaseMarkovian,
		run: tabled(func(r *Runner, c cut) ([]BatteryPoint, error) {
			return r.BatteryLifetime(cmp.Or(c.budget, 5000), 5)
		}, BatteryRows),
	}, {
		name: "fig7", figure: "Fig. 7", title: "energy/waiting-time trade-off", phases: phaseMarkovian | phaseGeneral,
		inputs: []string{"fig3markov", "fig3general"},
		run: func(_ *Runner, _ cut, in []any, rend render) (any, string, error) {
			curves := tradeoff(in[0].([]Comparison), in[1].([]Comparison), "wait", "energy_per_req")
			block := rend(TradeoffRows(curves, "waiting_time", "energy_per_request")) + "\n"
			if dom := ParetoDominated(curves.General); len(dom) > 0 {
				block += fmt.Sprintf("Pareto-dominated points on the general curve (timeouts near the idle period): %d\n", len(dom))
			}
			return curves, block, nil
		},
	}},
}

// StreamingStudy regenerates the streaming results: the Sect. 3.2 check,
// Fig. 4, Fig. 6, the start-up transient extension, and Fig. 8.
var StreamingStudy = &Study{
	name:      "streaming",
	quickHelp: "small buffers and shorter simulations (smoke run)",
	full:      cut{scale: Full},
	quick:     cut{scale: Quick, sim: pipeline.SimSettings{RunLength: 60000, Warmup: 20000, Replications: 5}},
	entries: []*entry{{
		name: "sect3", figure: "Sect. 3.2", title: "noninterference", phases: phaseFunctional,
		run: func(r *Runner, c cut, _ []any, _ render) (any, string, error) {
			res, err := r.StreamingNoninterference(c.scale)
			if err != nil {
				return nil, "", err
			}
			return res, verdict("streaming", res) + "\n", nil
		},
	}, {
		name: "fig4", figure: "Fig. 4", title: "Markovian streaming comparison", phases: phaseMarkovian,
		run: tabled(func(r *Runner, c cut) ([]Comparison, error) {
			return r.compareMarkov(streamingCase, c.scale, c.grid)
		}, streamingCase.rows),
	}, {
		name: "fig6", figure: "Fig. 6", title: "general streaming comparison (CBR video, deadlines)", phases: phaseGeneral,
		run: tabled(func(r *Runner, c cut) ([]Comparison, error) {
			return r.compareGeneral(streamingCase, c.scale, c.grid, c.sim)
		}, streamingCase.rows),
	}, {
		name: "transient", figure: "Extension", title: "start-up transient (P[buffer empty](t), awake period 100 ms)", phases: phaseMarkovian,
		run: tabled(func(r *Runner, c cut) ([]TransientPoint, error) {
			return r.StreamingStartupTransient(c.grid, 100, c.scale)
		}, TransientRows),
	}, {
		name: "fig8", figure: "Fig. 8", title: "energy/miss trade-off", phases: phaseMarkovian | phaseGeneral,
		inputs: []string{"fig4", "fig6"},
		run: func(_ *Runner, _ cut, in []any, rend render) (any, string, error) {
			curves := tradeoff(in[0].([]Comparison), in[1].([]Comparison), "miss", "energy_per_frame")
			return curves, rend(TradeoffRows(curves, "miss_rate", "energy_per_frame")) + "\n", nil
		},
	}},
}

// memo runs a study's entries against one Runner and cut and keeps each
// finished result by entry name.
type memo struct {
	r    *Runner
	c    cut
	s    *Study
	done map[string]any
}

func newMemo(r *Runner, s *Study, c cut) *memo {
	return &memo{r: r, c: c, s: s, done: make(map[string]any)}
}

// run runs e, taking each of its inputs from the memo, or running the
// input first when no earlier entry of this memo produced it.
func (m *memo) run(e *entry, rend render) (any, string, error) {
	in := make([]any, len(e.inputs))
	for i, name := range e.inputs {
		v, ok := m.done[name]
		if !ok {
			var err error
			if v, _, err = m.run(m.s.entry(name), rend); err != nil {
				return nil, "", err
			}
		}
		in[i] = v
	}
	v, block, err := e.run(m.r, m.c, in, rend)
	if err != nil {
		return nil, "", err
	}
	m.done[e.name] = v
	return v, block, nil
}

// flagError is a flag set's parse error, which the set has printed with
// the usage.
type flagError struct{ error }

func (e flagError) Unwrap() error { return e.error }

// ExitCode reports err, returned by RunStudy on s, on standard error and
// returns the process status. The flag set prints its own parse error
// with the usage, and the usage alone for -h, so neither is printed
// again: -h exits 0 and a flag error 2, as under the flag package's
// ExitOnError. Any other error is printed and exits 1.
func (s *Study) ExitCode(err error) int {
	var fe flagError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &fe):
		return 2
	}
	fmt.Fprintf(os.Stderr, "%sstudy: %v\n", s.name, err)
	return 1
}

// RunStudy is the command line of the study s: it parses args, then runs
// the selected experiment, or every entry in catalog order for "all",
// printing each banner and text block to w. Within one invocation an
// entry that consumes another's result reuses it, so "all" runs every
// experiment once.
func RunStudy(s *Study, args []string, w io.Writer) (err error) {
	names := []string{"all"}
	for _, e := range s.entries {
		names = append(names, e.name)
	}
	fs := flag.NewFlagSet(s.name+"study", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "which experiment to run ("+strings.Join(names, ", ")+")")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	quick := fs.Bool("quick", false, s.quickHelp)
	workers := fs.Int("workers", runtime.NumCPU(),
		"concurrent sweep chunks, simulation replications, and experiment\n"+
			"points (results are identical at any value)")
	timeout := fs.Duration("timeout", 0,
		"overall deadline: generation, solves, sweeps and simulations are\n"+
			"canceled promptly once it expires (0 = no deadline)")
	ckptDir := fs.String("checkpoint", "",
		"directory for the study's result store, created if missing: every\n"+
			"Markovian solve is appended there as it completes, so the run\n"+
			"becomes resumable (empty = disabled)")
	resume := fs.Bool("resume", false,
		"resume from the result store in -checkpoint DIR, solving only what it\n"+
			"lacks (results are identical to an uninterrupted run); without it\n"+
			"the store is started afresh")
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}

	selected := s.entries
	if *experiment != "all" {
		e := s.entry(*experiment)
		if e == nil {
			return fmt.Errorf("unknown -experiment %q (want %s)", *experiment, strings.Join(names, ", "))
		}
		selected = []*entry{e}
	}
	cfg := pipeline.Config{Workers: *workers, Store: pipeline.NewMemoryStore()}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		cfg.Ctx = ctx
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint DIR")
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
		store, err := pipeline.OpenFileStore(filepath.Join(*ckptDir, s.name+".store"), *resume)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := store.Close(); err == nil {
				err = cerr
			}
		}()
		cfg.Store = store
	}
	c := s.full
	if *quick {
		c = s.quick
	}
	rend := FormatTable
	if *csv {
		rend = FormatCSV
	}

	m := newMemo(NewRunner(cfg), s, c)
	for _, e := range selected {
		fmt.Fprintln(w, e.banner())
		_, block, err := m.run(e, rend)
		if err != nil {
			return err
		}
		io.WriteString(w, block)
	}
	return nil
}

// Command dpmassess runs the incremental DPM-assessment methodology on a
// textual .aem architectural description.
//
// Usage:
//
//	dpmassess lts      [-dot out.dot] [-max N] [-compose full|minimize] [-stats] model.aem
//	dpmassess check    -high INST -low INST [-high-labels l1,l2] model.aem
//	dpmassess solve    -measures spec.msr [-compose full|minimize] [-stats]
//	                   [-lanes K] [-checkpoint file.ckpt] [-resume]
//	                   [-workers N] model.aem
//	dpmassess sim      -measures spec.msr [-runlength T] [-warmup T]
//	                   [-reps N] [-seed S] [-workers N] model.aem
//	dpmassess equiv    [-relation strong|weak|markovian] a.aem b.aem
//	dpmassess minimize [-relation strong|weak|markovian] [-dot out.dot] model.aem
//	dpmassess mc       -formula 'EXISTS_WEAK_TRANS(...)' [-hide-except INST] model.aem
//
// State-space generation and the steady-state solver are sequential;
// solve and sim take -workers to bound their concurrent sweep points and
// replications, and outputs are bit-identical at any worker count. Every
// subcommand takes -timeout: an overall deadline after which generation, solves
// and simulations are canceled promptly (reported as a cancellation error
// naming the phase that observed it).
//
// lts and solve take -compose: "full" (the default) generates the plain
// parallel product, "minimize" lumps each component before composition
// and folds vanishing states during generation, so the full product never
// materializes. Measure values are identical either way; state counts are
// not, because minimization is the point. sim always runs on the full
// model — minimization accelerates the Markovian path only.
//
// The solve subcommand is resumable on models with rate parameters:
// -checkpoint periodically saves the solver's progress to a versioned,
// checksummed file, and -resume replays it instead of re-solving, with
// output bit-identical to an uninterrupted run.
//
// The check subcommand performs the phase-1 noninterference analysis
// (hide-vs-restrict up to weak bisimulation) and prints the diagnostic
// distinguishing formula on failure. solve performs the phase-2 Markovian
// analysis: it extracts and solves the CTMC and evaluates the measures
// defined in the companion-language file. sim estimates the same measures
// by discrete-event simulation (exponential durations from the model's
// rates; use the Go API for general distributions).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/aemilia"
	"repro/internal/aemilia/parser"
	"repro/internal/bisim"
	"repro/internal/compose"
	"repro/internal/ctmc"
	"repro/internal/elab"
	"repro/internal/hml"
	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/noninterference"
	"repro/internal/pipeline"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dpmassess:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: dpmassess <lts|check|solve|sim> [flags] model.aem")
	}
	switch args[0] {
	case "lts":
		return runLTS(args[1:])
	case "check":
		return runCheck(args[1:])
	case "solve":
		return runSolve(args[1:])
	case "sim":
		return runSim(args[1:])
	case "equiv":
		return runEquiv(args[1:])
	case "minimize":
		return runMinimize(args[1:])
	case "mc":
		return runMC(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// runMC model-checks a diagnostic formula against a model's initial
// state: the closing step of the paper's repair loop, where the formula
// emitted by a failed noninterference check is re-checked against a
// candidate fix. The -hide flag applies the same observation window the
// transparency check uses (everything but the low instance becomes tau).
func runMC(args []string) error {
	fs := flag.NewFlagSet("mc", flag.ContinueOnError)
	formulaText := fs.String("formula", "", "formula in TwoTowers diagnostic syntax")
	hideExcept := fs.String("hide-except", "", "hide every label not involving this instance (observation window)")
	timeout := timeoutFlag(fs)
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProf()
	ctx, stopCtx := timeoutCtx(*timeout)
	defer stopCtx()
	path, err := positional(fs)
	if err != nil {
		return err
	}
	if *formulaText == "" {
		return fmt.Errorf("-formula is required")
	}
	f, err := hml.Parse(*formulaText)
	if err != nil {
		return err
	}
	l, err := loadLTS(ctx, path)
	if err != nil {
		return err
	}
	if *hideExcept != "" {
		low := lts.LabelMatcherByInstance(*hideExcept)
		l = lts.Hide(l, func(label string) bool { return !low(label) })
	}
	checker := hml.NewChecker(l)
	if checker.Sat(l.Initial, f) {
		fmt.Println("verdict: SATISFIED in the initial state")
	} else {
		fmt.Println("verdict: NOT satisfied in the initial state")
	}
	return nil
}

// runEquiv compares two models up to the chosen equivalence and prints a
// distinguishing formula on failure.
func runEquiv(args []string) error {
	fs := flag.NewFlagSet("equiv", flag.ContinueOnError)
	relName := fs.String("relation", "weak", "equivalence relation (strong, weak, markovian)")
	timeout := timeoutFlag(fs)
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProf()
	ctx, stopCtx := timeoutCtx(*timeout)
	defer stopCtx()
	if fs.NArg() != 2 {
		return fmt.Errorf("equiv expects two model files")
	}
	l1, err := loadLTS(ctx, fs.Arg(0))
	if err != nil {
		return err
	}
	l2, err := loadLTS(ctx, fs.Arg(1))
	if err != nil {
		return err
	}
	switch *relName {
	case "markovian":
		if bisim.MarkovianEquivalent(l1, l2) {
			fmt.Println("verdict: MARKOVIAN BISIMILAR (lumping-equivalent)")
		} else {
			fmt.Println("verdict: NOT Markovian bisimilar")
		}
		return nil
	case "strong", "weak":
		rel := bisim.Weak
		if *relName == "strong" {
			rel = bisim.Strong
		}
		ok, f := bisim.Equivalent(l1, l2, rel)
		if ok {
			fmt.Printf("verdict: %s BISIMILAR\n", strings.ToUpper(*relName))
			return nil
		}
		fmt.Printf("verdict: NOT %s bisimilar\n", *relName)
		fmt.Println("distinguishing formula (holds in the first model, fails in the second):")
		fmt.Println("  " + hml.Format(f))
		return nil
	default:
		return fmt.Errorf("unknown relation %q", *relName)
	}
}

// runMinimize reduces a model's state space by the chosen equivalence and
// reports the compression.
func runMinimize(args []string) error {
	fs := flag.NewFlagSet("minimize", flag.ContinueOnError)
	relName := fs.String("relation", "weak", "equivalence relation (strong, weak, markovian)")
	dotPath := fs.String("dot", "", "write the quotient in Graphviz DOT format")
	timeout := timeoutFlag(fs)
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProf()
	ctx, stopCtx := timeoutCtx(*timeout)
	defer stopCtx()
	path, err := positional(fs)
	if err != nil {
		return err
	}
	l, err := loadLTS(ctx, path)
	if err != nil {
		return err
	}
	var m *lts.LTS
	switch *relName {
	case "markovian":
		m = bisim.Lump(l)
	case "strong":
		m = bisim.Minimize(l, bisim.Strong)
	case "weak":
		m = bisim.Minimize(l, bisim.Weak)
	default:
		return fmt.Errorf("unknown relation %q", *relName)
	}
	fmt.Printf("original: %d states, %d transitions\n", l.NumStates, l.NumTransitions())
	fmt.Printf("quotient: %d states, %d transitions (%.1f%% of original states)\n",
		m.NumStates, m.NumTransitions(), 100*float64(m.NumStates)/float64(l.NumStates))
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := lts.WriteDOT(f, m, path); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *dotPath)
	}
	return nil
}

// composeFlag registers the shared -compose flag: the composition
// strategy of the state-space-building subcommands.
func composeFlag(fs *flag.FlagSet) *string {
	return fs.String("compose", "full",
		"composition strategy: full generates the plain parallel product,\n"+
			"minimize lumps each component before composition and folds vanishing\n"+
			"states during generation (measure values are identical either way)")
}

// parseCompose maps the -compose value onto the minimize policy.
func parseCompose(mode string) (minimize bool, err error) {
	switch mode {
	case "full":
		return false, nil
	case "minimize":
		return true, nil
	default:
		return false, fmt.Errorf("unknown -compose mode %q (want full or minimize)", mode)
	}
}

// printMemStats renders the resident-memory breakdown of a generated
// state space: the state table, the CSR transition arrays, and
// the fold-attribution pool.
func printMemStats(l *lts.LTS) {
	stateTable, csrBytes, auxBytes := l.MemStats()
	fmt.Printf("memory:      state table %s, transitions %s, attribution %s\n",
		fmtBytes(stateTable), fmtBytes(csrBytes), fmtBytes(auxBytes))
}

// fmtBytes renders a byte count at a human scale.
func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// printComposeStats renders the per-component reduction of a
// compositional minimization, with the worst-case product bound it
// implies.
func printComposeStats(st *compose.Stats) {
	full, minimized := st.ProductBound()
	fmt.Printf("compose:     %s (product bound %.4g → %.4g)\n", st, full, minimized)
}

// timeoutFlag registers the shared -timeout flag: the subcommand's
// overall deadline.
func timeoutFlag(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("timeout", 0,
		"overall deadline: generation, solves and simulations are canceled\n"+
			"promptly once it expires (0 = no deadline)")
}

// timeoutCtx turns the -timeout value into a cancellation context: nil
// (which disables deadline polling entirely) when no deadline was asked
// for. Defer the returned stop function around the subcommand's work.
func timeoutCtx(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return nil, func() {}
	}
	return context.WithTimeout(context.Background(), d)
}

// profFlags carries the shared -cpuprofile/-memprofile flags.
type profFlags struct {
	cpu, mem *string
}

// profileFlags registers the shared profiling flags, so any subcommand
// can record where its time and memory go (`go tool pprof` reads the
// output).
func profileFlags(fs *flag.FlagSet) profFlags {
	return profFlags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// start begins CPU profiling when requested and returns the function that
// stops it and writes the heap profile; defer it around the subcommand's
// work. Profile-write failures on the way out are reported as warnings:
// the analysis result is the product, the profile a diagnostic.
func (p profFlags) start() (func(), error) {
	var cpuFile *os.File
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "dpmassess: cpu profile:", err)
			}
		}
		if *p.mem != "" {
			f, err := os.Create(*p.mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dpmassess: heap profile:", err)
				return
			}
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dpmassess: heap profile:", err)
			}
			f.Close()
		}
	}, nil
}

// loadLTS parses a model file and generates its state space, polling ctx
// at BFS level boundaries.
func loadLTS(ctx context.Context, path string) (*lts.LTS, error) {
	m, err := loadModel(path)
	if err != nil {
		return nil, err
	}
	return lts.Generate(m, lts.GenerateOptions{Ctx: ctx})
}

func loadModel(path string) (*elab.Model, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	arch, err := parser.Parse(string(src))
	if err != nil {
		return nil, err
	}
	return elab.Elaborate(arch)
}

func positional(fs *flag.FlagSet) (string, error) {
	if fs.NArg() != 1 {
		return "", fmt.Errorf("expected exactly one model file, got %d arguments", fs.NArg())
	}
	return fs.Arg(0), nil
}

func runLTS(args []string) error {
	fs := flag.NewFlagSet("lts", flag.ContinueOnError)
	dotPath := fs.String("dot", "", "write the state space in Graphviz DOT format")
	autPath := fs.String("aut", "", "write the state space in Aldebaran (CADP) format")
	maxStates := fs.Int("max", 0, "abort beyond this many states (0 = default bound)")
	composeMode := composeFlag(fs)
	stats := fs.Bool("stats", false,
		"print resident-memory statistics (state table, transition arrays,\n"+
			"attribution pool) and, with -compose minimize, the per-component\n"+
			"reduction")
	timeout := timeoutFlag(fs)
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProf()
	ctx, stopCtx := timeoutCtx(*timeout)
	defer stopCtx()
	path, err := positional(fs)
	if err != nil {
		return err
	}
	minimize, err := parseCompose(*composeMode)
	if err != nil {
		return err
	}
	m, err := loadModel(path)
	if err != nil {
		return err
	}
	genOpts := lts.GenerateOptions{MaxStates: *maxStates, Ctx: ctx}
	var compStats *compose.Stats
	if minimize {
		qm, st, err := compose.Minimize(m, compose.Options{})
		if err != nil {
			return err
		}
		m, compStats = qm, st
		genOpts.Fold = &lts.FoldOptions{}
	}
	l, err := lts.Generate(m, genOpts)
	if err != nil {
		return err
	}
	fmt.Printf("states:      %d\n", l.NumStates)
	fmt.Printf("transitions: %d\n", l.NumTransitions())
	fmt.Printf("labels:      %d\n", l.NumLabels())
	if dl := l.Deadlocks(); len(dl) > 0 {
		fmt.Printf("deadlocks:   %d\n", len(dl))
	}
	if *stats {
		printMemStats(l)
		if compStats != nil {
			printComposeStats(compStats)
		}
	}
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := lts.WriteDOT(f, l, path); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *dotPath)
	}
	if *autPath != "" {
		f, err := os.Create(*autPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := lts.WriteAUT(f, l); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *autPath)
	}
	return nil
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	high := fs.String("high", "", "high instance (its synchronizations are the power commands)")
	low := fs.String("low", "", "low instance (its actions are the observables)")
	highLabels := fs.String("high-labels", "", "comma-separated explicit high labels (overrides -high)")
	timeout := timeoutFlag(fs)
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProf()
	ctx, stopCtx := timeoutCtx(*timeout)
	defer stopCtx()
	path, err := positional(fs)
	if err != nil {
		return err
	}
	if *high == "" && *highLabels == "" {
		return fmt.Errorf("one of -high or -high-labels is required")
	}
	if *low == "" {
		return fmt.Errorf("-low is required")
	}
	m, err := loadModel(path)
	if err != nil {
		return err
	}
	spec := noninterference.Spec{Low: lts.LabelMatcherByInstance(*low)}
	if *highLabels != "" {
		spec.High = lts.LabelMatcherByNames(strings.Split(*highLabels, ",")...)
	} else {
		spec.High = lts.LabelMatcherByInstance(*high)
	}
	l, err := lts.Generate(m, lts.GenerateOptions{Ctx: ctx})
	if err != nil {
		return err
	}
	res, err := noninterference.Check(l, spec)
	if err != nil {
		return err
	}
	fmt.Printf("states:            %d\n", l.NumStates)
	fmt.Printf("hidden variant:    %d states\n", res.HiddenStates)
	fmt.Printf("restricted variant: %d states\n", res.RestrictedStates)
	if res.Transparent {
		fmt.Println("verdict: NONINTERFERENCE HOLDS (the high component is transparent)")
		return nil
	}
	fmt.Println("verdict: INTERFERENCE DETECTED")
	fmt.Println("distinguishing formula (holds with the high component hidden, fails with it disabled):")
	fmt.Println("  " + res.FormulaText)
	return nil
}

func readMeasures(path string) ([]measure.Measure, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return measure.Parse(string(src))
}

func runSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	measuresPath := fs.String("measures", "", "measure definition file (companion language)")
	composeMode := composeFlag(fs)
	stats := fs.Bool("stats", false,
		"print statistics after the measures: resident memory of the state\n"+
			"space, the per-component reduction (with -compose minimize), and the\n"+
			"Gauss-Seidel solve — iterations, final residual, and iteration budget")
	lanes := fs.Int("lanes", 0,
		"sweep points solved per batched steady-state call on checkpointed solves,\n"+
			"run as ⌈K/8⌉ eight-lane groups: 0 auto-selects, 1 solves one point\n"+
			"per call (results are identical at any value; matches the study\n"+
			"tools' -lanes flag)")
	ckptPath := fs.String("checkpoint", "",
		"checkpoint file: the solve periodically saves its progress there\n"+
			"(requires a model with rate parameters; empty = disabled)")
	resume := fs.Bool("resume", false,
		"resume from an existing -checkpoint file, replaying the saved solution\n"+
			"instead of re-solving (output is identical to an uninterrupted run)")
	workers := fs.Int("workers", runtime.NumCPU(),
		"concurrent sweep points on checkpointed solves (outputs are identical at any value)")
	timeout := timeoutFlag(fs)
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProf()
	ctx, stopCtx := timeoutCtx(*timeout)
	defer stopCtx()
	path, err := positional(fs)
	if err != nil {
		return err
	}
	if *measuresPath == "" {
		return fmt.Errorf("-measures is required")
	}
	if *resume && *ckptPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	minimize, err := parseCompose(*composeMode)
	if err != nil {
		return err
	}
	ms, err := readMeasures(*measuresPath)
	if err != nil {
		return err
	}
	m, err := loadModel(path)
	if err != nil {
		return err
	}
	// One session stages the whole solve: elaborated model, state space,
	// chain, and solution are each built exactly once, shared by whichever
	// path (plain or checkpointed) consumes them.
	s := pipeline.NewSession(pipeline.Spec{
		Model:    m,
		Measures: ms,
		Gen:      lts.GenerateOptions{Ctx: ctx},
		Minimize: minimize,
		Solve:    ctmc.SolveOptions{Ctx: ctx},
	}, pipeline.Config{Workers: *workers, LaneWidth: *lanes, Ctx: ctx})
	var rep *pipeline.Phase2Report
	if *ckptPath != "" {
		// Checkpointed solves go through the sweep driver: a one-point
		// sweep at the model's own rates, saved to (and resumed from) the
		// checkpoint file. For a parametric model the rates are read from
		// the session's staged state space — the same generation the sweep
		// reuses; a slot-free model solves as one empty point.
		point := []float64{}
		if m.NumRateSlots() > 0 {
			l, err := s.LTS()
			if err != nil {
				return err
			}
			point = l.SlotDefaults()
		}
		reports, err := s.SweepCheckpointed([][]float64{point},
			&pipeline.CheckpointOptions{Path: *ckptPath, Every: 1, Resume: *resume})
		if err != nil {
			return err
		}
		rep = reports[0]
	} else {
		rep, err = s.Phase2()
		if err != nil {
			return err
		}
	}
	fmt.Printf("states: %d (tangible %d, vanishing %d)\n", rep.States, rep.Tangible, rep.Vanishing)
	for _, m := range ms {
		fmt.Printf("%-24s %.8g\n", m.Name, rep.Values[m.Name])
	}
	if *stats {
		if l, err := s.LTS(); err == nil {
			printMemStats(l)
		}
		if st, err := s.MinimizeStats(); err == nil && st != nil {
			printComposeStats(st)
		}
		printSolveTrace(rep.Trace)
	}
	return nil
}

// printSolveTrace renders a report's solve on one line: its iterations,
// final residual and iteration budget. Checkpointed solves record no
// trace, so a missing trace is reported rather than silently skipped.
func printSolveTrace(tr *ctmc.SolveTrace) {
	if tr == nil {
		fmt.Println("solver: no trace recorded (checkpointed solves record no solver trace)")
		return
	}
	a := tr.Attempts[0]
	fmt.Printf("solver: iterations=%d residual=%.3g max-iterations=%d\n", a.Iterations, a.Residual, a.MaxIterations)
}

func runSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	measuresPath := fs.String("measures", "", "measure definition file (companion language)")
	runLength := fs.Float64("runlength", 10000, "measured model time per replication")
	warmup := fs.Float64("warmup", 0, "discarded warm-up time")
	reps := fs.Int("reps", 30, "independent replications")
	seed := fs.Uint64("seed", 1, "master random seed")
	level := fs.Float64("confidence", 0.90, "confidence level: 0.8, 0.9, 0.95 or 0.99")
	composeMode := composeFlag(fs)
	workers := fs.Int("workers", runtime.NumCPU(),
		"concurrent replications (estimates are identical at any value)")
	timeout := timeoutFlag(fs)
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProf()
	ctx, stopCtx := timeoutCtx(*timeout)
	defer stopCtx()
	path, err := positional(fs)
	if err != nil {
		return err
	}
	if *measuresPath == "" {
		return fmt.Errorf("-measures is required")
	}
	if minimize, err := parseCompose(*composeMode); err != nil {
		return err
	} else if minimize {
		// Accepted for interface uniformity with lts/solve: simulation
		// always walks the full model, so there is nothing to minimize.
		fmt.Fprintln(os.Stderr, "dpmassess: sim always runs on the full model; -compose minimize has no effect")
	}
	ms, err := readMeasures(*measuresPath)
	if err != nil {
		return err
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	arch, err := parser.Parse(string(src))
	if err != nil {
		return err
	}
	rep, err := pipeline.NewSession(pipeline.Spec{
		Build:    func() (*aemilia.ArchiType, error) { return arch, nil },
		Measures: ms,
	}, pipeline.Config{}).Phase3(nil, pipeline.SimSettings{
		RunLength:       *runLength,
		Warmup:          *warmup,
		Replications:    *reps,
		Seed:            *seed,
		ConfidenceLevel: *level,
		Workers:         *workers,
		Ctx:             ctx,
	})
	if err != nil {
		return err
	}
	fmt.Printf("replications: %d, events: %d\n", rep.Replications, rep.Events)
	for _, m := range ms {
		fmt.Printf("%-24s %v\n", m.Name, rep.Estimates[m.Name])
	}
	return nil
}

// Command dpmassess runs the incremental DPM-assessment methodology on a
// textual .aem architectural description.
//
// Usage:
//
//	dpmassess lts      [-dot out.dot] [-max N] [-compose full|minimize] [-stats] model.aem
//	dpmassess check    -high INST -low INST [-high-labels l1,l2] model.aem
//	dpmassess solve    -measures spec.msr [-compose full|minimize] [-stats]
//	                   [-checkpoint file.ckpt] [-resume] model.aem
//	dpmassess sim      -measures spec.msr [-runlength T] [-warmup T]
//	                   [-reps N] [-seed S] [-workers N] model.aem
//	dpmassess equiv    [-relation strong|weak|markovian] a.aem b.aem
//	dpmassess minimize [-relation strong|weak|markovian] [-dot out.dot] model.aem
//	dpmassess mc       -formula 'EXISTS_WEAK_TRANS(...)' [-hide-except INST] model.aem
//
// State-space generation and the steady-state solver are sequential;
// sim takes -workers to bound its concurrent replications, and its
// output is bit-identical at any worker count. Every
// subcommand takes -timeout: an overall deadline after which generation, solves
// and simulations are canceled promptly (reported as a cancellation error
// naming the phase that observed it).
//
// lts and solve take -compose: "full" (the default) generates the plain
// parallel product, "minimize" folds vanishing states during generation,
// so they are never interned. Measure values are identical either way;
// state counts are not, because folding is the point. sim has no
// -compose: it always runs on the full model — folding accelerates the
// Markovian path only.
//
// The solve subcommand is resumable: -checkpoint appends the solution to
// a versioned, checksummed result store, and -resume answers from it
// instead of re-solving, with the measure values of an uninterrupted
// run. A store answers only a solve of the same description, measures,
// -compose mode and tolerance; any edit to them solves afresh.
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
			"minimize folds vanishing states during generation (measure values\n"+
			"are identical either way)")
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
	arch, err := loadArch(path)
	if err != nil {
		return nil, err
	}
	return elab.Elaborate(arch)
}

func loadArch(path string) (*aemilia.ArchiType, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parser.Parse(string(src))
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
			"attribution pool)")
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
	if minimize {
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
	// A name the model lacks would match no label and check an empty
	// high or low set, so reject it here.
	for _, f := range [][2]string{{"high", *high}, {"low", *low}} {
		if _, ok := m.InstanceIndex(f[1]); f[1] != "" && !ok {
			names := make([]string, m.NumInstances())
			for i := range names {
				names[i] = m.InstanceName(i)
			}
			return fmt.Errorf("-%s %q is not an instance of the model (instances: %s)",
				f[0], f[1], strings.Join(names, ", "))
		}
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

func runSolve(args []string) (err error) {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	measuresPath := fs.String("measures", "", "measure definition file (companion language)")
	composeMode := composeFlag(fs)
	stats := fs.Bool("stats", false,
		"print statistics after the measures: resident memory of the state\n"+
			"space and the Gauss-Seidel solve — iterations, final residual, and\n"+
			"iteration budget")
	ckptPath := fs.String("checkpoint", "",
		"result store file: the solution is appended there, so the solve\n"+
			"becomes resumable (empty = disabled)")
	resume := fs.Bool("resume", false,
		"answer from the -checkpoint file when it holds this solve, instead of\n"+
			"re-solving (measure values are identical to an uninterrupted run);\n"+
			"without it the file is started afresh")
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
	arch, err := loadArch(path)
	if err != nil {
		return err
	}
	cfg := pipeline.Config{Ctx: ctx}
	if *ckptPath != "" {
		store, err := pipeline.OpenFileStore(*ckptPath, *resume)
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
	// One session stages the whole solve: elaborated model, state space,
	// chain, and solution are each built exactly once. The store keys the
	// solve by the description.
	s := pipeline.NewSession(pipeline.Spec{Arch: arch, Measures: ms, Minimize: minimize}, cfg)
	rep, err := s.Phase2()
	if err != nil {
		return err
	}
	fmt.Printf("states: %d (tangible %d, vanishing %d)\n", rep.States, rep.Tangible, rep.Vanishing)
	for _, m := range ms {
		fmt.Printf("%-24s %.8g\n", m.Name, rep.Values[m.Name])
	}
	if *stats {
		if l, err := s.LTS(); err == nil {
			printMemStats(l)
		}
		printSolveTrace(rep.Trace)
	}
	return nil
}

// printSolveTrace renders a report's solve on one line: its iterations,
// final residual and iteration budget. A report answered from the store
// carries no trace, so a missing trace is reported rather than silently
// skipped.
func printSolveTrace(tr *ctmc.SolveTrace) {
	if tr == nil {
		fmt.Println("solver: no trace recorded (the report came from the store)")
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
	ms, err := readMeasures(*measuresPath)
	if err != nil {
		return err
	}
	arch, err := loadArch(path)
	if err != nil {
		return err
	}
	rep, err := pipeline.NewSession(pipeline.Spec{Arch: arch, Measures: ms},
		pipeline.Config{Workers: *workers, Ctx: ctx}).Phase3(nil, pipeline.SimSettings{
		RunLength:       *runLength,
		Warmup:          *warmup,
		Replications:    *reps,
		Seed:            *seed,
		ConfidenceLevel: *level,
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

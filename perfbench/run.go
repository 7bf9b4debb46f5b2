package main

import (
	"fmt"
	"math"
	"regexp"
	"strings"

	"repro/internal/aemilia"
	"repro/internal/aemilia/parser"
	"repro/internal/dist"
	"repro/internal/elab"
	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/models"
	"repro/internal/noninterference"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// workers is the concurrency every session runs with: the two cores of
// the machine the benchmark is sized for.
const workers = 2

// prepared is a query's set-up output: the elaborated model and what the
// query needs to analyse it.
type prepared struct {
	model    *elab.Model
	measures []measure.Measure
	dists    map[sim.Activity]dist.Distribution
	ni       noninterference.Spec
}

// rateSlot matches the slot binding of a printed rate, "exp@1(" — which
// the .aem syntax cannot express, so the printed text drops it.
var rateSlot = regexp.MustCompile(`exp@\d+\(`)

// setup builds every query's description, prints it and parses the text
// back (checking the round trip), and elaborates it.
func setup(qs []query, tr *tracer) ([]*prepared, error) {
	out := make([]*prepared, len(qs))
	for i, q := range qs {
		sp := tr.begin("models.build", -1)
		arch, p, err := build(q)
		var src string
		if err == nil {
			src = rateSlot.ReplaceAllLiteralString(aemilia.Format(arch), "exp(")
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", q.Name, err)
		}
		sp = tr.begin("aemilia.parse", -1)
		parsed, err := parser.Parse(src)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: parse: %w", q.Name, err)
		}
		if aemilia.Format(parsed) != src {
			return nil, fmt.Errorf("%s: parsed description does not print back to its source", q.Name)
		}
		sp = tr.begin("elab.elaborate", -1)
		p.model, err = elab.Elaborate(arch)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: elaborate: %w", q.Name, err)
		}
		out[i] = p
	}
	return out, nil
}

// build returns the query's architectural description and its measures,
// duration overrides and noninterference spec.
func build(q query) (*aemilia.ArchiType, *prepared, error) {
	p := &prepared{}
	var arch *aemilia.ArchiType
	var err error
	switch q.Family {
	case famRPCSimplified:
		arch, err = models.BuildRPCSimplified()
		p.ni = rpcNI()
	case famRPC:
		arch, err = models.BuildRPCRevised(q.RPC)
		p.ni = rpcNI()
		if q.RPC.Mode == models.Markovian {
			p.measures = models.RPCMeasures(q.RPC)
			p.dists = models.RPCGeneralDistributions(q.RPC)
		}
	case famStreaming:
		arch, err = models.BuildStreaming(q.Stream)
		p.ni = noninterference.Spec{
			High: lts.LabelMatcherByNames(models.StreamingHighLabels()...),
			Low:  lts.LabelMatcherByInstance("C"),
		}
		if q.Stream.Mode == models.Markovian {
			p.measures = models.StreamingMeasures(q.Stream)
			p.dists = models.StreamingGeneralDistributions(q.Stream)
		}
	default:
		err = fmt.Errorf("unknown model family %q", q.Family)
	}
	return arch, p, err
}

// rpcNI is the rpc noninterference spec of Sect. 3.1: the DPM's shutdown
// command is high, the client's actions are the low observables.
func rpcNI() noninterference.Spec {
	return noninterference.Spec{
		High: lts.LabelMatcherByNames(models.RPCHighLabels()...),
		Low:  lts.LabelMatcherByInstance("C"),
	}
}

// answer is what a query computed.
type answer struct {
	ni     *noninterference.Result
	states int
	phase2 map[string]float64
	sweep  []map[string]float64
	sim    map[string]float64
}

// counters accumulates the deterministic per-layer counts of a pass.
type counters map[string]float64

// runQuery answers one query on a fresh session, with a span around each
// public call.
func runQuery(id int, q query, p *prepared, tr *tracer, cnt counters) (*answer, error) {
	root := tr.begin("query", id)
	defer tr.end(root)
	s := pipeline.NewSession(pipeline.Spec{
		Model:    p.model,
		Measures: p.measures,
		Minimize: q.Minimize,
	}, pipeline.Config{Workers: workers})
	ans := &answer{}

	if q.Kind == kindSim {
		sp := tr.begin("sim.run", id)
		rep, err := s.Phase3(p.dists, pipeline.SimSettings{
			RunLength: q.RunLength, Warmup: q.Warmup,
			Replications: q.Replications, Seed: q.SimSeed,
		})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		cnt["sim.events"] += float64(rep.Events)
		ans.sim = make(map[string]float64, len(rep.Estimates))
		for k, ci := range rep.Estimates {
			ans.sim[k] = ci.Mean
		}
		return ans, nil
	}

	if q.Minimize {
		sp := tr.begin("compose.minimize", id)
		_, err := s.GenModel()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		st, err := s.MinimizeStats()
		if err != nil {
			return nil, err
		}
		full, minimized := st.ProductBound()
		cnt["compose.full"] += full
		cnt["compose.minimized"] += minimized
	}
	sp := tr.begin("lts.generate", id)
	l, err := s.LTS()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ans.states = l.NumStates
	cnt["lts.states"] += float64(l.NumStates)
	cnt["lts.edges"] += float64(l.NumTransitions())

	if q.Kind == kindCheck {
		sp := tr.begin("noninterference.check", id)
		res, err := noninterference.Check(l, p.ni)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		cnt["noninterference.hidden_states"] += float64(res.HiddenStates)
		cnt["noninterference.restricted_states"] += float64(res.RestrictedStates)
		ans.ni = res
		return ans, nil
	}

	sp = tr.begin("ctmc.build", id)
	c, err := s.Chain()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	cnt["ctmc.tangible"] += float64(c.N)
	cnt["ctmc.vanishing"] += float64(c.NumVanishing())

	if q.Phase2 {
		sp := tr.begin("pipeline.phase2", id)
		rep, err := s.Phase2()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if rep.Trace != nil {
			for _, a := range rep.Trace.Attempts {
				cnt["ctmc.attempts"]++
				cnt["ctmc.iterations"] += float64(a.Iterations)
				cnt["ctmc.cycles"] += float64(a.Cycles)
				cnt["ctmc.solves_"+strings.ReplaceAll(a.Sweep.String(), "-", "_")]++
			}
		}
		ans.phase2 = rep.Values
	}
	if len(q.Points) > 0 {
		points := make([][]float64, len(q.Points))
		for i, x := range q.Points {
			points[i] = []float64{1 / x}
		}
		sp := tr.begin("pipeline.sweep", id)
		reps, err := s.Sweep(points)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		cnt["pipeline.points"] += float64(len(reps))
		for _, rep := range reps {
			if rep.Trace.Escalated() {
				cnt["pipeline.escalated_points"]++
			}
			ans.sweep = append(ans.sweep, rep.Values)
		}
	}
	return ans, nil
}

// Recorded results a paper-default query must reproduce.
const (
	refSect3RPCSimplified = "sect3-rpc-simplified"
	refSect3RPCRevised    = "sect3-rpc-revised"
	refFig3NoDPM          = "fig3-nodpm"
	refFig3Timeout0       = "fig3-timeout0"
	refFig3Sweep          = "fig3-sweep"
	refFig4Minimized      = "fig4-minimized"
	refFig6NoDPM          = "fig6-nodpm"
	refFig6Period100      = "fig6-period100"
)

// Reference tables and verdict names in the recorded study outputs.
const (
	tableFig3 = "Fig. 3 (left)"
	tableFig4 = "Fig. 4"
	tableFig6 = "Fig. 6"
)

// check validates an answer: against the recorded tables for a
// paper-default query, by sanity and balance checks for a seeded one.
func check(q query, a *answer, ref *reference) error {
	switch q.Ref {
	case refSect3RPCSimplified:
		return checkVerdict(a, ref.Verdicts["simplified rpc"])
	case refSect3RPCRevised:
		return checkVerdict(a, ref.Verdicts["revised rpc"])
	case refFig3NoDPM:
		m := rpcMetrics(a.phase2)
		for key := range ref.Tables[tableFig3].Rows {
			if err := ref.checkRow(tableFig3, key, map[string]float64{
				"thr_nodpm": m.thr, "wait_nodpm": m.wait, "energy_per_req_nodpm": m.energy,
			}); err != nil {
				return err
			}
		}
		return nil
	case refFig3Timeout0:
		return ref.checkRow(tableFig3, "0", rpcMetrics(a.phase2).dpmRow())
	case refFig3Sweep:
		for i, T := range q.Points {
			if err := ref.checkRow(tableFig3, printed(T), rpcMetrics(a.sweep[i]).dpmRow()); err != nil {
				return err
			}
		}
		return nil
	case refFig6NoDPM:
		m := streamingMetrics(a.sim)
		for key := range ref.Tables[tableFig6].Rows {
			if err := ref.checkRow(tableFig6, key, map[string]float64{
				"energy_per_frame_nodpm": m.energy, "loss_nodpm": m.loss,
				"miss_nodpm": m.miss, "quality_nodpm": m.quality,
			}); err != nil {
				return err
			}
		}
		return nil
	case refFig4Minimized:
		if q.Phase2 {
			if err := ref.checkRow(tableFig4, printed(q.Stream.AwakePeriod), streamingMetrics(a.phase2).dpmRow()); err != nil {
				return fmt.Errorf("phase 2: %w", err)
			}
		}
		for i, P := range q.Points {
			if err := ref.checkRow(tableFig4, printed(P), streamingMetrics(a.sweep[i]).dpmRow()); err != nil {
				return err
			}
		}
		return nil
	case refFig6Period100:
		return ref.checkRow(tableFig6, printed(q.Stream.AwakePeriod), streamingMetrics(a.sim).dpmRow())
	case "":
		return checkSeeded(q, a)
	}
	return fmt.Errorf("unknown reference %q", q.Ref)
}

func checkVerdict(a *answer, v *verdict) error {
	if v == nil {
		return fmt.Errorf("reference verdict missing")
	}
	if a.states != v.States {
		return fmt.Errorf("%d states, recorded %d", a.states, v.States)
	}
	if a.ni.Transparent != v.Transparent {
		return fmt.Errorf("transparent=%v, recorded %v", a.ni.Transparent, v.Transparent)
	}
	if a.ni.FormulaText != v.Formula {
		return fmt.Errorf("formula %q, recorded %q", a.ni.FormulaText, v.Formula)
	}
	return nil
}

// checkSeeded checks what holds for any parameters: streaming stays
// transparent at every buffer size, values are finite, probabilities lie
// in [0,1], quality is 1 − miss, and the client attempts one render per
// render interval (delivered + missed frames balance the render rate).
func checkSeeded(q query, a *answer) error {
	if q.Kind == kindCheck {
		if !a.ni.Transparent {
			return fmt.Errorf("streaming not transparent: %s", a.ni.FormulaText)
		}
		return nil
	}
	var all []map[string]float64
	if a.phase2 != nil {
		all = append(all, a.phase2)
	}
	all = append(all, a.sweep...)
	if a.sim != nil {
		all = append(all, a.sim)
	}
	if len(all) == 0 {
		return fmt.Errorf("no values")
	}
	for i, v := range all {
		for k, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				return fmt.Errorf("value %d: %s = %v", i, k, x)
			}
		}
		switch q.Family {
		case famRPC:
			m := rpcMetrics(v)
			if m.thr <= 0 || v["waiting_time"] > 1 {
				return fmt.Errorf("value %d: throughput %v, waiting probability %v", i, m.thr, v["waiting_time"])
			}
		case famStreaming:
			m := streamingMetrics(v)
			for _, pr := range []float64{m.loss, m.miss, m.quality} {
				if pr < 0 || pr > 1 {
					return fmt.Errorf("value %d: probability %v out of [0,1]", i, pr)
				}
			}
			if m.quality != 1-m.miss {
				return fmt.Errorf("value %d: quality %v != 1 - miss %v", i, m.quality, m.miss)
			}
			want := 1 / q.Stream.MeanRenderInterval
			tol := 1e-6
			if q.Kind == kindSim {
				tol = 0.01
			}
			if got := v["frames_delivered"] + v["frames_missed"]; math.Abs(got-want) > tol*want {
				return fmt.Errorf("value %d: render attempts %v per ms, want %v", i, got, want)
			}
		}
	}
	return nil
}

type rpcM struct{ thr, wait, energy float64 }

// rpcMetrics derives the Fig. 3 indices from the raw rewards.
func rpcMetrics(v map[string]float64) rpcM {
	m := rpcM{thr: v["throughput"]}
	if m.thr > 0 {
		m.wait = v["waiting_time"] / m.thr
		m.energy = v["energy"] / m.thr
	}
	return m
}

func (m rpcM) dpmRow() map[string]float64 {
	return map[string]float64{"thr_dpm": m.thr, "wait_dpm": m.wait, "energy_per_req_dpm": m.energy}
}

type streamingM struct{ energy, loss, miss, quality float64 }

// streamingMetrics derives the Fig. 4/6 indices from the raw rewards.
func streamingMetrics(v map[string]float64) streamingM {
	delivered, missed, sent := v["frames_delivered"], v["frames_missed"], v["frames_sent"]
	var m streamingM
	if delivered > 0 {
		m.energy = v["nic_energy"] / delivered
	}
	if sent > 0 {
		m.loss = v["frames_lost"] / sent
	}
	if delivered+missed > 0 {
		m.miss = missed / (delivered + missed)
	}
	m.quality = 1 - m.miss
	return m
}

func (m streamingM) dpmRow() map[string]float64 {
	return map[string]float64{
		"energy_per_frame_dpm": m.energy, "loss_dpm": m.loss,
		"miss_dpm": m.miss, "quality_dpm": m.quality,
	}
}

package sim_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/aemilia"
	"repro/internal/dist"
	"repro/internal/expr"
	"repro/internal/measure"
	"repro/internal/pipeline"
	"repro/internal/rates"
	"repro/internal/sim"
)

// The race oracles check the general phase against closed forms: small
// architectures whose deterministic and normal delays race, built with the
// aemilia builder and simulated through Session.Phase3 exactly as the
// paper's experiments are. Each measure's 90% interval must cover its
// closed form at most seeds of a fixed set; how many may miss is a
// binomial bound, so the verdict is deterministic yet not tuned to one
// stream of draws.

const (
	oracleSeeds = 20 // Phase 3 runs per race, at seeds 1..oracleSeeds
	oracleReps  = 10 // replications per run
)

// oracleMissBound is the least m with P(Binomial(n, 0.1) > m) < 1e-3: the
// misses that n independent 90% intervals exceed only one time in a
// thousand.
func oracleMissBound(n int) int {
	pmf := math.Pow(0.9, float64(n)) // P(X = 0)
	tail := 1 - pmf
	m := 0
	for tail >= 1e-3 {
		pmf *= float64(n-m) / float64(m+1) * (0.1 / 0.9)
		tail -= pmf
		m++
	}
	return m
}

func TestOracleMissBound(t *testing.T) {
	// P(Binomial(20, 0.1) > 6) = 2.4e-3 and P(> 7) = 4.3e-4.
	if got := oracleMissBound(20); got != 7 {
		t.Errorf("oracleMissBound(20) = %d, want 7", got)
	}
}

// raceOracle is one architecture with its duration overrides and the
// closed form of each measure.
type raceOracle struct {
	arch      *aemilia.ArchiType
	dists     map[sim.Activity]dist.Distribution
	measures  []measure.Measure
	want      map[string]float64
	runLength float64
}

// check simulates the race at every oracle seed and counts, per measure,
// the seeds whose interval misses the closed form.
func (o raceOracle) check(t *testing.T) {
	t.Helper()
	s := pipeline.NewSession(pipeline.Spec{Arch: o.arch, Measures: o.measures}, pipeline.Config{})
	misses := map[string]int{}
	for seed := uint64(1); seed <= oracleSeeds; seed++ {
		rep, err := s.Phase3(o.dists, pipeline.SimSettings{
			RunLength:    o.runLength,
			Warmup:       o.runLength / 100,
			Replications: oracleReps,
			Seed:         seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range o.want {
			if ci := rep.Estimates[name]; !ci.Contains(want) {
				misses[name]++
				t.Logf("seed %d: %s = %v misses %.6g", seed, name, ci, want)
			}
		}
	}
	bound := oracleMissBound(oracleSeeds)
	for name, want := range o.want {
		if misses[name] > bound {
			t.Errorf("%s: %d of %d intervals miss the closed form %.6g (at most %d may)",
				name, misses[name], oracleSeeds, want, bound)
		}
	}
}

// on is one clause of a measure: an action and its reward value.
type on struct {
	action string
	value  float64
}

// reward builds a measure of the given kind on one instance's actions.
func reward(name, inst string, kind measure.RewardKind, clauses ...on) measure.Measure {
	m := measure.Measure{Name: name}
	for _, c := range clauses {
		m.Clauses = append(m.Clauses, measure.Clause{Instance: inst, Action: c.action, Kind: kind, Value: c.value})
	}
	return m
}

// Timeout against an exponential idle period: the rpc DPM's race. An idle
// period X ~ Exp(lambda) races a deterministic shutdown timeout T; a
// shutdown sleeps out the rest of X, wakes in a deterministic W, and every
// idle period ends in a deterministic busy period B. With p = e^(−λT) the
// shutdown fraction, a renewal cycle lasts on average
// E[min(X,T)] + p/λ + pW + B = 1/λ + pW + B, and the power rewards give
// the long-run energy rate by renewal-reward.
const (
	idleRate = 1.0
	timeoutT = 0.7
	wakeW    = 0.3
	busyB    = 0.5
	powIdle  = 2.0
	powSleep = 0.2
	powWake  = 5.0
	powBusy  = 4.0
)

// dpmRace builds the timeout race; with noise it adds a third, independent
// component whose exponential self-loops at rate noise interleave with it.
func dpmRace(noise float64) raceOracle {
	p := math.Exp(-idleRate * timeoutT)
	idle, sleep, wake := (1-p)/idleRate, p/idleRate, p*wakeW
	cycle := idle + sleep + wake + busyB

	placeholder := rates.ExpRate(1) // overridden by a deterministic duration
	dev := aemilia.NewElemType("Device_Type", nil, []string{"mon_idle", "mon_sleep", "mon_wake", "mon_busy"},
		aemilia.NewBehavior("Idle", nil, aemilia.Ch(
			aemilia.Pre("arrive", rates.ExpRate(idleRate), aemilia.Invoke("Busy")),
			aemilia.Pre("timeout", placeholder, aemilia.Invoke("Sleep")),
			aemilia.Pre("mon_idle", rates.PassiveRate(), aemilia.Invoke("Idle")))),
		aemilia.NewBehavior("Sleep", nil, aemilia.Ch(
			aemilia.Pre("arrive", rates.ExpRate(idleRate), aemilia.Invoke("Waking")),
			aemilia.Pre("mon_sleep", rates.PassiveRate(), aemilia.Invoke("Sleep")))),
		aemilia.NewBehavior("Waking", nil, aemilia.Ch(
			aemilia.Pre("wake", placeholder, aemilia.Invoke("Busy")),
			aemilia.Pre("mon_wake", rates.PassiveRate(), aemilia.Invoke("Waking")))),
		aemilia.NewBehavior("Busy", nil, aemilia.Ch(
			aemilia.Pre("finish", placeholder, aemilia.Invoke("Idle")),
			aemilia.Pre("mon_busy", rates.PassiveRate(), aemilia.Invoke("Busy")))),
	)
	types := []*aemilia.ElemType{dev}
	insts := []*aemilia.Instance{aemilia.NewInstance("D", "Device_Type")}
	if noise > 0 {
		types = append(types, aemilia.NewElemType("Noise_Type", nil, nil,
			aemilia.NewBehavior("Run", nil,
				aemilia.Pre("tick", rates.ExpRate(noise), aemilia.Invoke("Run")))))
		insts = append(insts, aemilia.NewInstance("N", "Noise_Type"))
	}
	return raceOracle{
		arch: aemilia.NewArchiType("DPMRace", types, insts, nil),
		dists: map[sim.Activity]dist.Distribution{
			{Instance: "D", Action: "timeout"}: dist.NewDet(timeoutT),
			{Instance: "D", Action: "wake"}:    dist.NewDet(wakeW),
			{Instance: "D", Action: "finish"}:  dist.NewDet(busyB),
		},
		measures: []measure.Measure{
			reward("energy", "D", measure.StateReward,
				on{"mon_idle", powIdle}, on{"mon_sleep", powSleep}, on{"mon_wake", powWake}, on{"mon_busy", powBusy}),
			reward("shutdowns", "D", measure.TransReward, on{"timeout", 1}),
			// Shutdowns less p per busy period: it reads 0 exactly when a
			// fraction p of the idle periods end in a shutdown.
			reward("shutdown_excess", "D", measure.TransReward, on{"timeout", 1}, on{"finish", -p}),
		},
		want: map[string]float64{
			"energy":          (powIdle*idle + powSleep*sleep + powWake*wake + powBusy*busyB) / cycle,
			"shutdowns":       p / cycle,
			"shutdown_excess": 0,
		},
		runLength: 2000,
	}
}

func TestRaceOracleTimeoutVsExp(t *testing.T) { dpmRace(0).check(t) }

// Under enabling memory the timeout's clock survives the moves of an
// independent component, so the answer does not move; a simulator that
// resampled it at each of the five ticks per timeout would hardly ever
// shut down.
func TestRaceOracleEnablingMemory(t *testing.T) { dpmRace(5 / timeoutT).check(t) }

// Deterministic timeout against the zero-truncated normal: the rpc client
// timeout against the Gaussian channel. A delivery D ~ N(mu, sigma)
// conditioned on D > 0 races a timeout T that runs on after the delivery,
// so every cycle lasts T plus a deterministic reset R, and the delivery
// throughput is P(D < T) / (T + R) with
// P(D < T) = (Φ((T−μ)/σ) − Φ(−μ/σ)) / (1 − Φ(−μ/σ)). Sigma equal to mu
// puts 16% of the untruncated mass below zero.
func TestRaceOracleTimeoutVsNormal(t *testing.T) {
	const mu, sigma, timeout, reset = 1.0, 1.0, 1.2, 0.3
	phi := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	q := (phi((timeout-mu)/sigma) - phi(-mu/sigma)) / (1 - phi(-mu/sigma))

	placeholder := rates.ExpRate(1)
	ch := aemilia.NewElemType("Channel_Type", nil, nil,
		aemilia.NewBehavior("Wait", nil, aemilia.Ch(
			aemilia.Pre("deliver", placeholder, aemilia.Invoke("Got")),
			aemilia.Pre("timeout", placeholder, aemilia.Invoke("Over")))),
		aemilia.NewBehavior("Got", nil,
			aemilia.Pre("timeout", placeholder, aemilia.Invoke("Over"))),
		aemilia.NewBehavior("Over", nil,
			aemilia.Pre("reset", placeholder, aemilia.Invoke("Wait"))),
	)
	raceOracle{
		arch: aemilia.NewArchiType("NormalRace", []*aemilia.ElemType{ch},
			[]*aemilia.Instance{aemilia.NewInstance("C", "Channel_Type")}, nil),
		dists: map[sim.Activity]dist.Distribution{
			{Instance: "C", Action: "deliver"}: dist.NewNormal(mu, sigma),
			{Instance: "C", Action: "timeout"}: dist.NewDet(timeout),
			{Instance: "C", Action: "reset"}:   dist.NewDet(reset),
		},
		measures:  []measure.Measure{reward("delivered", "C", measure.TransReward, on{"deliver", 1})},
		want:      map[string]float64{"delivered": q / (timeout + reset)},
		runLength: 2000,
	}.check(t)
}

// An M/G/1 queue: Poisson arrivals at rate lambda and one server whose
// service times S follow the given distribution, so rho = lambda·E[S].
// The queue Q holds n customers and stops accepting them at queueCap,
// which it reaches with negligible probability at the loads below: P(N ≥
// k) falls geometrically in k, by about 0.29 per customer for the M/D/1
// and at most rho ≈ 0.51 (the M/M/1 factor) for the less variable
// normal service. Two state rewards have
// closed forms: the utilization rho, and the Pollaczek–Khinchine mean
// number in system rho + lambda²·E[S²]/(2(1 − rho)). The mean is the sum
// over k ≥ 1 of P(N ≥ k), one monitor per k, with the tail past
// watchedLevels negligible too; each monitor's clause sums the
// occupancies of every reward class at or above its level, and the
// monitors fill two 64-clause words.
func mg1(lambda float64, service dist.Distribution, mean, second float64) raceOracle {
	const (
		queueCap      = 100
		watchedLevels = 70
	)
	rho := lambda * mean
	n := expr.Ref("n")
	body := []aemilia.Process{
		aemilia.When(expr.Bin(expr.OpLt, n, expr.Int(queueCap)),
			aemilia.Pre("arrive", rates.ExpRate(lambda), aemilia.Invoke("Queue", expr.Bin(expr.OpAdd, n, expr.Int(1))))),
		aemilia.When(expr.Bin(expr.OpGt, n, expr.Int(0)),
			aemilia.Pre("serve", rates.ExpRate(1), aemilia.Invoke("Queue", expr.Bin(expr.OpSub, n, expr.Int(1))))),
		aemilia.When(expr.Bin(expr.OpGt, n, expr.Int(0)),
			aemilia.Pre("mon_busy", rates.PassiveRate(), aemilia.Invoke("Queue", n))),
	}
	mons := []string{"mon_busy"}
	var levels []on
	for k := 1; k <= watchedLevels; k++ {
		mon := fmt.Sprintf("mon_ge%d", k)
		mons = append(mons, mon)
		levels = append(levels, on{mon, 1})
		body = append(body, aemilia.When(expr.Bin(expr.OpGe, n, expr.Int(int64(k))),
			aemilia.Pre(mon, rates.PassiveRate(), aemilia.Invoke("Queue", n))))
	}
	queue := aemilia.NewElemType("Queue_Type", nil, mons,
		aemilia.NewBehavior("Queue", []aemilia.Param{aemilia.IntParam("n")}, aemilia.Ch(body...)))
	return raceOracle{
		arch: aemilia.NewArchiType("MG1", []*aemilia.ElemType{queue},
			[]*aemilia.Instance{aemilia.NewInstance("Q", "Queue_Type", expr.Int(0))}, nil),
		dists: map[sim.Activity]dist.Distribution{{Instance: "Q", Action: "serve"}: service},
		measures: []measure.Measure{
			reward("utilization", "Q", measure.StateReward, on{"mon_busy", 1}),
			reward("in_system", "Q", measure.StateReward, levels...),
		},
		want: map[string]float64{
			"utilization": rho,
			"in_system":   rho + lambda*lambda*second/(2*(1-rho)),
		},
		runLength: 2000,
	}
}

// M/D/1: a deterministic service of 0.5 at unit arrival rate, rho = 0.5
// and 0.75 customers in system.
func TestQueueOracleMD1(t *testing.T) { mg1(1, dist.NewDet(0.5), 0.5, 0.25).check(t) }

// M/G/1 with the zero-truncated normal service of the rpc channel's kind:
// N(mu, sigma) conditioned on S > 0. With a = mu/sigma and
// h = φ(a)/Φ(a), E[S] = mu + sigma·h and E[S²] = mu² + sigma² + mu·sigma·h;
// at a = 2 the truncation removes 2.3% of the mass and moves E[S] by 3%.
func TestQueueOracleMG1(t *testing.T) {
	const mu, sigma = 0.5, 0.25
	a := mu / sigma
	h := math.Exp(-a*a/2) / math.Sqrt(2*math.Pi) / (0.5 * (1 + math.Erf(a/math.Sqrt2)))
	mg1(1, dist.NewNormal(mu, sigma), mu+sigma*h, mu*mu+sigma*sigma+mu*sigma*h).check(t)
}

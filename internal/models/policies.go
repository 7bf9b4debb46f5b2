package models

import (
	"repro/internal/aemilia"
	"repro/internal/expr"
	"repro/internal/rates"
)

// Policy selects the DPM decision scheme of the rpc model, following the
// classification the paper recalls from Benini–Bogliolo–De Micheli:
// deterministic (timeout) schemes, trivial schemes that issue shutdowns
// blindly, and predictive schemes that exploit the history of idle
// periods.
type Policy int

// Supported DPM policies.
const (
	// PolicyTimeout arms a shutdown timer whenever the server becomes
	// idle and cancels it on activity — the paper's main policy
	// (Sect. 2.1, "timeout policy").
	PolicyTimeout Policy = iota + 1
	// PolicyTrivial issues shutdown commands on a free-running clock,
	// independently of the server state (Sect. 2.1, "trivial policy");
	// commands take effect at the next idle moment.
	PolicyTrivial
	// PolicyPredictive is a 1-bit history predictor: if the previous
	// idle period ended before the shutdown timer fired, the next idle
	// period is predicted short and the shutdown is skipped.
	PolicyPredictive
	// PolicyNone disables the DPM (the comparison baseline).
	PolicyNone
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyTimeout:
		return "timeout"
	case PolicyTrivial:
		return "trivial"
	case PolicyPredictive:
		return "predictive"
	case PolicyNone:
		return "none"
	default:
		return "unknown"
	}
}

// buildDPMType constructs the DPM element type for the configured policy.
// Every variant accepts the server's busy/idle notifications in every
// state (they are immediate on the server side and must never block).
func buildDPMType(p RPCParams) *aemilia.ElemType {
	policy := p.Policy
	if policy == 0 {
		if p.WithDPM {
			policy = PolicyTimeout
		} else {
			policy = PolicyNone
		}
	}
	shutdownRate := expSlot(RPCTimeoutSlot, p.ParametricTimeout, p.ShutdownTimeout)

	switch policy {
	case PolicyNone:
		return aemilia.NewElemType("DPM_Type",
			[]string{"receive_busy_notice", "receive_idle_notice"},
			[]string{"send_shutdown"},
			aemilia.NewBehavior("Enabled_DPM", nil,
				aemilia.Pre("receive_busy_notice", rates.PassiveRate(), aemilia.Invoke("Disabled_DPM"))),
			aemilia.NewBehavior("Disabled_DPM", nil,
				aemilia.Pre("receive_idle_notice", rates.PassiveRate(), aemilia.Invoke("Enabled_DPM"))),
		)

	case PolicyTrivial:
		// A free-running tick arms a shutdown command that fires at the
		// next idle moment (the server only listens while idle).
		tickRate := shutdownRate
		if p.ShutdownTimeout <= 0 {
			tickRate = rates.ExpRate(1e6) // "immediately", but time must pass
		}
		return aemilia.NewElemType("DPM_Type",
			[]string{"receive_busy_notice", "receive_idle_notice"},
			[]string{"send_shutdown"},
			aemilia.NewBehavior("Trivial_DPM", nil, aemilia.Ch(
				aemilia.Pre("tick", tickRate, aemilia.Invoke("Armed_DPM")),
				aemilia.Pre("receive_busy_notice", rates.PassiveRate(), aemilia.Invoke("Trivial_DPM")),
				aemilia.Pre("receive_idle_notice", rates.PassiveRate(), aemilia.Invoke("Trivial_DPM")),
			)),
			aemilia.NewBehavior("Armed_DPM", nil, aemilia.Ch(
				aemilia.Pre("send_shutdown", imm(1), aemilia.Invoke("Trivial_DPM")),
				aemilia.Pre("receive_busy_notice", rates.PassiveRate(), aemilia.Invoke("Armed_DPM")),
				aemilia.Pre("receive_idle_notice", rates.PassiveRate(), aemilia.Invoke("Armed_DPM")),
			)),
		)

	case PolicyPredictive:
		// skip=true predicts a short idle period (the last one ended
		// before the timer fired) and suppresses one shutdown.
		skip := expr.Ref("skip")
		return aemilia.NewElemType("DPM_Type",
			[]string{"receive_busy_notice", "receive_idle_notice"},
			[]string{"send_shutdown"},
			aemilia.NewBehavior("Enabled_DPM", []aemilia.Param{aemilia.BoolParam("skip")},
				aemilia.Ch(
					aemilia.When(expr.Un(expr.OpNot, skip),
						aemilia.Pre("send_shutdown", shutdownRate,
							aemilia.Invoke("Disabled_DPM", expr.Bool(false)))),
					aemilia.Pre("receive_busy_notice", rates.PassiveRate(),
						aemilia.Invoke("Disabled_DPM", expr.Un(expr.OpNot, skip))),
				)),
			aemilia.NewBehavior("Disabled_DPM", []aemilia.Param{aemilia.BoolParam("skip")},
				aemilia.Pre("receive_idle_notice", rates.PassiveRate(),
					aemilia.Invoke("Enabled_DPM", skip))),
		)

	default: // PolicyTimeout
		return aemilia.NewElemType("DPM_Type",
			[]string{"receive_busy_notice", "receive_idle_notice"},
			[]string{"send_shutdown"},
			aemilia.NewBehavior("Enabled_DPM", nil, aemilia.Ch(
				aemilia.Pre("send_shutdown", shutdownRate, aemilia.Invoke("Disabled_DPM")),
				aemilia.Pre("receive_busy_notice", rates.PassiveRate(), aemilia.Invoke("Disabled_DPM")),
			)),
			aemilia.NewBehavior("Disabled_DPM", nil,
				aemilia.Pre("receive_idle_notice", rates.PassiveRate(), aemilia.Invoke("Enabled_DPM"))),
		)
	}
}

// dpmInstanceArgs returns the initial arguments of the DPM instance for
// the configured policy.
func dpmInstanceArgs(p RPCParams) []expr.Expr {
	policy := p.Policy
	if policy == PolicyPredictive {
		return []expr.Expr{expr.Bool(false)}
	}
	return nil
}

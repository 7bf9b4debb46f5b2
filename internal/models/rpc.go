// Package models contains the two case studies of the paper as
// parameterized architectural descriptions:
//
//   - rpc: a power-manageable server receiving remote procedure calls from
//     a blocking client over lossy half-duplex radio channels, with a DPM
//     issuing shutdown commands (Sect. 2.1);
//   - streaming: a streaming-video server reaching a mobile client through
//     an access point and a power-manageable 802.11b network interface
//     card running the PSP (doze mode) policy (Sect. 2.2).
//
// Each case study comes in the three flavours of the incremental
// methodology: a functional (untimed) model for the noninterference
// analysis, a Markovian model for the CTMC analysis, and the general model
// — the Markovian model plus non-exponential duration overrides for the
// simulator.
package models

import (
	"repro/internal/aemilia"
	"repro/internal/dist"
	"repro/internal/measure"
	"repro/internal/rates"
	"repro/internal/sim"
)

// Mode selects the timing flavour of a model.
type Mode int

// Model flavours.
const (
	// Functional builds the untimed model of the first phase.
	Functional Mode = iota + 1
	// Markovian builds the exponentially timed model of the second phase.
	Markovian
)

// RPCParams collects the rpc parameters; times are in milliseconds and
// match Sect. 4.1 of the paper.
type RPCParams struct {
	// Mode selects the functional or Markovian flavour.
	Mode Mode
	// WithDPM controls whether the DPM issues shutdown commands; when
	// false the DPM component is still present (to keep the topology
	// identical) but never acts.
	WithDPM bool
	// Policy selects the DPM decision scheme; the zero value resolves to
	// PolicyTimeout (or PolicyNone when WithDPM is false).
	Policy Policy
	// ShutdownInterruptsService makes the server sensitive to shutdown
	// commands while busy, aborting the service in progress (the
	// application-dependent variant of paper Sect. 2.1). The lost request
	// is recovered by the client's retransmission timeout.
	ShutdownInterruptsService bool
	// MeanServiceTime is the server's service time (paper: 0.2 ms).
	MeanServiceTime float64
	// MeanAwakeTime is the sleeping→busy wakeup latency (paper: 3 ms).
	MeanAwakeTime float64
	// MeanPropagationTime is the radio propagation delay (paper: 0.8 ms).
	MeanPropagationTime float64
	// PropagationSigma is the standard deviation of the normal
	// propagation delay in the general model (paper: 0.0345 ms).
	PropagationSigma float64
	// LossProb is the per-packet loss probability (paper: 0.02).
	LossProb float64
	// MeanProcessingTime is the client's result processing time
	// (paper: 9.7 ms).
	MeanProcessingTime float64
	// MeanClientTimeout is the client's retransmission timeout
	// (paper: 2 ms).
	MeanClientTimeout float64
	// ShutdownTimeout is the DPM's idle timeout before issuing a shutdown
	// (paper: swept 0–25 ms); 0 means "shut down as soon as idle".
	ShutdownTimeout float64
	// PowerIdle, PowerBusy and PowerAwaking are the server power levels
	// used by the energy reward (paper: 2, 3, 2; sleeping consumes 0).
	PowerIdle, PowerBusy, PowerAwaking float64
	// ParametricTimeout binds the shutdown-timeout rate to rate slot
	// RPCTimeoutSlot instead of a plain constant, so a timeout sweep can
	// generate the state space once and rebind the rate per point
	// (pipeline.Session.Sweep). Only meaningful in Markovian mode with a
	// positive ShutdownTimeout — the ShutdownTimeout <= 0 variant is a
	// structurally different model (the shutdown becomes immediate) and
	// cannot be reached by rebinding.
	ParametricTimeout bool
}

// RPCTimeoutSlot is the rate slot of the DPM shutdown-timeout rate when
// RPCParams.ParametricTimeout is set: a sweep point's value for this slot
// is 1/ShutdownTimeout.
const RPCTimeoutSlot = 1

// DefaultRPCParams returns the parameter set of paper Sect. 4.1.
func DefaultRPCParams() RPCParams {
	return RPCParams{
		Mode:                Markovian,
		WithDPM:             true,
		MeanServiceTime:     0.2,
		MeanAwakeTime:       3,
		MeanPropagationTime: 0.8,
		PropagationSigma:    0.0345,
		LossProb:            0.02,
		MeanProcessingTime:  9.7,
		MeanClientTimeout:   2,
		ShutdownTimeout:     5,
		PowerIdle:           2,
		PowerBusy:           3,
		PowerAwaking:        2,
	}
}

// rate helpers returning untimed annotations in functional mode.

func (p RPCParams) expMean(mean float64) rates.Rate {
	if p.Mode == Functional {
		return rates.UntimedRate()
	}
	return rates.ExpRate(1 / mean)
}

func (p RPCParams) imm(weight float64) rates.Rate {
	if p.Mode == Functional {
		return rates.UntimedRate()
	}
	return rates.Inf(1, weight)
}

func (p RPCParams) passive() rates.Rate {
	if p.Mode == Functional {
		return rates.UntimedRate()
	}
	return rates.PassiveRate()
}

// BuildRPCSimplified returns the simplified untimed rpc model of paper
// Sect. 2.3: ideal radio channels, a blocking client without timeout, a
// trivial DPM, and a server sensitive to shutdown in every active state.
// This is the model that fails the noninterference check in Sect. 3.1.
func BuildRPCSimplified() (*aemilia.ArchiType, error) {
	u := rates.UntimedRate()
	server := aemilia.NewElemType("Server_Type",
		[]string{"receive_rpc_packet", "receive_shutdown"},
		[]string{"send_result_packet"},
		aemilia.NewBehavior("Idle_Server", nil, aemilia.Ch(
			aemilia.Pre("receive_rpc_packet", u, aemilia.Invoke("Busy_Server")),
			aemilia.Pre("receive_shutdown", u, aemilia.Invoke("Sleeping_Server")),
		)),
		aemilia.NewBehavior("Busy_Server", nil, aemilia.Ch(
			aemilia.Pre("prepare_result_packet", u, aemilia.Invoke("Responding_Server")),
			aemilia.Pre("receive_shutdown", u, aemilia.Invoke("Sleeping_Server")),
		)),
		aemilia.NewBehavior("Responding_Server", nil, aemilia.Ch(
			aemilia.Pre("send_result_packet", u, aemilia.Invoke("Idle_Server")),
			aemilia.Pre("receive_shutdown", u, aemilia.Invoke("Sleeping_Server")),
		)),
		aemilia.NewBehavior("Sleeping_Server", nil,
			aemilia.Pre("receive_rpc_packet", u, aemilia.Invoke("Awaking_Server"))),
		aemilia.NewBehavior("Awaking_Server", nil,
			aemilia.Pre("awake", u, aemilia.Invoke("Busy_Server"))),
	)
	channel := aemilia.NewElemType("Radio_Channel_Type",
		[]string{"get_packet"}, []string{"deliver_packet"},
		aemilia.NewBehavior("Radio_Channel", nil,
			aemilia.Pre("get_packet", u,
				aemilia.Pre("propagate_packet", u,
					aemilia.Pre("deliver_packet", u, aemilia.Invoke("Radio_Channel"))))),
	)
	client := aemilia.NewElemType("Sync_Client_Type",
		[]string{"receive_result_packet"}, []string{"send_rpc_packet"},
		aemilia.NewBehavior("Sync_Client", nil,
			aemilia.Pre("send_rpc_packet", u,
				aemilia.Pre("receive_result_packet", u,
					aemilia.Pre("process_result_packet", u, aemilia.Invoke("Sync_Client"))))),
	)
	dpm := aemilia.NewElemType("DPM_Type", nil, []string{"send_shutdown"},
		aemilia.NewBehavior("DPM_Beh", nil,
			aemilia.Pre("send_shutdown", u, aemilia.Invoke("DPM_Beh"))),
	)
	a := aemilia.NewArchiType("RPC_DPM_Untimed",
		[]*aemilia.ElemType{server, channel, client, dpm},
		[]*aemilia.Instance{
			aemilia.NewInstance("S", "Server_Type"),
			aemilia.NewInstance("RCS", "Radio_Channel_Type"),
			aemilia.NewInstance("RSC", "Radio_Channel_Type"),
			aemilia.NewInstance("C", "Sync_Client_Type"),
			aemilia.NewInstance("DPM", "DPM_Type"),
		},
		[]aemilia.Attachment{
			aemilia.Attach("C", "send_rpc_packet", "RCS", "get_packet"),
			aemilia.Attach("RCS", "deliver_packet", "S", "receive_rpc_packet"),
			aemilia.Attach("S", "send_result_packet", "RSC", "get_packet"),
			aemilia.Attach("RSC", "deliver_packet", "C", "receive_result_packet"),
			aemilia.Attach("DPM", "send_shutdown", "S", "receive_shutdown"),
		},
	)
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// BuildRPCRevised returns the revised rpc model of paper Sect. 3.1: lossy
// channels, a client with a retransmission timeout, a server that ignores
// stale packets and notifies the DPM of its busy/idle state, and a DPM
// that only shuts the server down while it is idle.
func BuildRPCRevised(p RPCParams) (*aemilia.ArchiType, error) {
	busyBranches := []aemilia.Process{
		aemilia.Pre("prepare_result_packet", p.expMean(p.MeanServiceTime),
			aemilia.Invoke("Responding_Server")),
		aemilia.Pre("receive_rpc_packet", p.passive(),
			aemilia.Pre("ignore_rpc_packet", p.imm(1), aemilia.Invoke("Busy_Server"))),
		aemilia.Pre("monitor_busy_server", rates.PassiveRate(), aemilia.Invoke("Busy_Server")),
	}
	respondingBranches := []aemilia.Process{
		aemilia.Pre("send_result_packet", p.imm(1),
			aemilia.Pre("notify_idle", p.imm(1), aemilia.Invoke("Idle_Server"))),
		aemilia.Pre("receive_rpc_packet", p.passive(),
			aemilia.Pre("ignore_rpc_packet", p.imm(1), aemilia.Invoke("Responding_Server"))),
		aemilia.Pre("monitor_busy_server", rates.PassiveRate(), aemilia.Invoke("Responding_Server")),
	}
	if p.ShutdownInterruptsService {
		// The service in progress is aborted; the DPM must learn that the
		// server is no longer busy so that the next idle notice is not
		// spurious — the sleeping server re-notifies on wake-up instead,
		// so here the abort is silent and the request is simply lost.
		interrupt := aemilia.Pre("receive_shutdown", p.passive(),
			aemilia.Pre("abort_service", p.imm(1), aemilia.Invoke("Sleeping_Server")))
		busyBranches = append(busyBranches, interrupt)
		respondingBranches = append(respondingBranches,
			aemilia.Pre("receive_shutdown", p.passive(),
				aemilia.Pre("abort_service", p.imm(1), aemilia.Invoke("Sleeping_Server"))))
	}
	server := aemilia.NewElemType("Server_Type",
		[]string{"receive_rpc_packet", "receive_shutdown"},
		[]string{"send_result_packet", "notify_busy", "notify_idle",
			"monitor_idle_server", "monitor_busy_server", "monitor_awaking_server"},
		aemilia.NewBehavior("Idle_Server", nil, aemilia.Ch(
			aemilia.Pre("receive_rpc_packet", p.passive(),
				aemilia.Pre("notify_busy", p.imm(1), aemilia.Invoke("Busy_Server"))),
			aemilia.Pre("receive_shutdown", p.passive(), aemilia.Invoke("Sleeping_Server")),
			aemilia.Pre("monitor_idle_server", rates.PassiveRate(), aemilia.Invoke("Idle_Server")),
		)),
		aemilia.NewBehavior("Busy_Server", nil, aemilia.Ch(busyBranches...)),
		aemilia.NewBehavior("Responding_Server", nil, aemilia.Ch(respondingBranches...)),
		aemilia.NewBehavior("Sleeping_Server", nil,
			aemilia.Pre("receive_rpc_packet", p.passive(), aemilia.Invoke("Awaking_Server"))),
		aemilia.NewBehavior("Awaking_Server", nil, aemilia.Ch(
			aemilia.Pre("awake", p.expMean(p.MeanAwakeTime), aemilia.Invoke("Busy_Server")),
			aemilia.Pre("receive_rpc_packet", p.passive(),
				aemilia.Pre("ignore_rpc_packet", p.imm(1), aemilia.Invoke("Awaking_Server"))),
			aemilia.Pre("monitor_awaking_server", rates.PassiveRate(), aemilia.Invoke("Awaking_Server")),
		)),
	)

	keepW := 1 - p.LossProb
	loseW := p.LossProb
	channel := aemilia.NewElemType("Radio_Channel_Type",
		[]string{"get_packet"}, []string{"deliver_packet"},
		aemilia.NewBehavior("Radio_Channel", nil,
			aemilia.Pre("get_packet", p.passive(),
				aemilia.Pre("propagate_packet", p.expMean(p.MeanPropagationTime),
					aemilia.Ch(
						aemilia.Pre("keep_packet", p.imm(keepW),
							aemilia.Pre("deliver_packet", p.imm(1), aemilia.Invoke("Radio_Channel"))),
						aemilia.Pre("lose_packet", p.imm(loseW), aemilia.Invoke("Radio_Channel")),
					)))),
	)

	client := aemilia.NewElemType("Sync_Client_Type",
		[]string{"receive_result_packet"},
		[]string{"send_rpc_packet", "monitor_waiting_client"},
		aemilia.NewBehavior("Requesting_Client", nil, aemilia.Ch(
			aemilia.Pre("send_rpc_packet", p.imm(1), aemilia.Invoke("Waiting_Client")),
			aemilia.Pre("receive_result_packet", p.passive(),
				aemilia.Pre("ignore_result_packet", p.imm(1), aemilia.Invoke("Requesting_Client"))),
		)),
		aemilia.NewBehavior("Waiting_Client", nil, aemilia.Ch(
			aemilia.Pre("receive_result_packet", p.passive(), aemilia.Invoke("Processing_Client")),
			aemilia.Pre("expire_timeout", p.expMean(p.MeanClientTimeout), aemilia.Invoke("Resending_Client")),
			aemilia.Pre("monitor_waiting_client", rates.PassiveRate(), aemilia.Invoke("Waiting_Client")),
		)),
		aemilia.NewBehavior("Processing_Client", nil, aemilia.Ch(
			aemilia.Pre("process_result_packet", p.expMean(p.MeanProcessingTime),
				aemilia.Invoke("Requesting_Client")),
			aemilia.Pre("receive_result_packet", p.passive(),
				aemilia.Pre("ignore_result_packet", p.imm(1), aemilia.Invoke("Processing_Client"))),
		)),
		aemilia.NewBehavior("Resending_Client", nil, aemilia.Ch(
			aemilia.Pre("send_rpc_packet", p.imm(1), aemilia.Invoke("Waiting_Client")),
			aemilia.Pre("receive_result_packet", p.passive(), aemilia.Invoke("Processing_Client")),
		)),
	)

	// DPM: the decision policy of Sect. 2.1 (timeout by default; see
	// Policy for the trivial and predictive variants).
	dpm := buildDPMType(p)

	a := aemilia.NewArchiType("RPC_DPM_Revised",
		[]*aemilia.ElemType{server, channel, client, dpm},
		[]*aemilia.Instance{
			aemilia.NewInstance("S", "Server_Type"),
			aemilia.NewInstance("RCS", "Radio_Channel_Type"),
			aemilia.NewInstance("RSC", "Radio_Channel_Type"),
			aemilia.NewInstance("C", "Sync_Client_Type"),
			aemilia.NewInstance("DPM", "DPM_Type", dpmInstanceArgs(p)...),
		},
		[]aemilia.Attachment{
			aemilia.Attach("C", "send_rpc_packet", "RCS", "get_packet"),
			aemilia.Attach("RCS", "deliver_packet", "S", "receive_rpc_packet"),
			aemilia.Attach("S", "send_result_packet", "RSC", "get_packet"),
			aemilia.Attach("RSC", "deliver_packet", "C", "receive_result_packet"),
			aemilia.Attach("DPM", "send_shutdown", "S", "receive_shutdown"),
			aemilia.Attach("S", "notify_busy", "DPM", "receive_busy_notice"),
			aemilia.Attach("S", "notify_idle", "DPM", "receive_idle_notice"),
		},
	)
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// RPCHighLabels returns the high (power-command) labels of the rpc models:
// only the shutdown synchronization modifies the server's power state
// (the busy/idle notifications are observations, not commands).
func RPCHighLabels() []string {
	return []string{"DPM.send_shutdown#S.receive_shutdown"}
}

// RPCMeasures returns the three reward measures of paper Sect. 4.1.
// Energy per request is derived as energy/throughput by the experiments.
func RPCMeasures(p RPCParams) []measure.Measure {
	return []measure.Measure{
		{Name: "throughput", Clauses: []measure.Clause{
			{Instance: "C", Action: "process_result_packet", Kind: measure.TransReward, Value: 1},
		}},
		{Name: "waiting_time", Clauses: []measure.Clause{
			{Instance: "C", Action: "monitor_waiting_client", Kind: measure.StateReward, Value: 1},
		}},
		{Name: "energy", Clauses: []measure.Clause{
			{Instance: "S", Action: "monitor_idle_server", Kind: measure.StateReward, Value: p.PowerIdle},
			{Instance: "S", Action: "monitor_busy_server", Kind: measure.StateReward, Value: p.PowerBusy},
			{Instance: "S", Action: "monitor_awaking_server", Kind: measure.StateReward, Value: p.PowerAwaking},
		}},
	}
}

// RPCGeneralDistributions returns the duration overrides that turn the
// Markovian rpc model into the general model of paper Sect. 5.2: service,
// wakeup, processing, timeout and shutdown become deterministic; the
// radio propagation becomes normal with the measured standard deviation.
func RPCGeneralDistributions(p RPCParams) map[sim.Activity]dist.Distribution {
	m := map[sim.Activity]dist.Distribution{
		{Instance: "S", Action: "prepare_result_packet"}: dist.NewDet(p.MeanServiceTime),
		{Instance: "S", Action: "awake"}:                 dist.NewDet(p.MeanAwakeTime),
		{Instance: "C", Action: "process_result_packet"}: dist.NewDet(p.MeanProcessingTime),
		{Instance: "C", Action: "expire_timeout"}:        dist.NewDet(p.MeanClientTimeout),
		{Instance: "RCS", Action: "propagate_packet"}:    dist.NewNormal(p.MeanPropagationTime, p.PropagationSigma),
		{Instance: "RSC", Action: "propagate_packet"}:    dist.NewNormal(p.MeanPropagationTime, p.PropagationSigma),
	}
	if p.WithDPM && p.ShutdownTimeout > 0 {
		if p.Policy == PolicyTrivial {
			m[sim.Activity{Instance: "DPM", Action: "tick"}] = dist.NewDet(p.ShutdownTimeout)
		} else {
			m[sim.Activity{Instance: "DPM", Action: "send_shutdown"}] = dist.NewDet(p.ShutdownTimeout)
		}
	}
	return m
}

// RPCExponentialDistributions returns exponential overrides with the same
// means as the general model — the cross-validation configuration of
// paper Sect. 5.1 (simulating the Markovian model).
func RPCExponentialDistributions(p RPCParams) map[sim.Activity]dist.Distribution {
	m := map[sim.Activity]dist.Distribution{
		{Instance: "S", Action: "prepare_result_packet"}: dist.ExpWithMean(p.MeanServiceTime),
		{Instance: "S", Action: "awake"}:                 dist.ExpWithMean(p.MeanAwakeTime),
		{Instance: "C", Action: "process_result_packet"}: dist.ExpWithMean(p.MeanProcessingTime),
		{Instance: "C", Action: "expire_timeout"}:        dist.ExpWithMean(p.MeanClientTimeout),
		{Instance: "RCS", Action: "propagate_packet"}:    dist.ExpWithMean(p.MeanPropagationTime),
		{Instance: "RSC", Action: "propagate_packet"}:    dist.ExpWithMean(p.MeanPropagationTime),
	}
	if p.WithDPM && p.ShutdownTimeout > 0 {
		if p.Policy == PolicyTrivial {
			m[sim.Activity{Instance: "DPM", Action: "tick"}] = dist.ExpWithMean(p.ShutdownTimeout)
		} else {
			m[sim.Activity{Instance: "DPM", Action: "send_shutdown"}] = dist.ExpWithMean(p.ShutdownTimeout)
		}
	}
	return m
}

package models

import (
	"repro/internal/aemilia"
	"repro/internal/dist"
	"repro/internal/expr"
	"repro/internal/measure"
	"repro/internal/rates"
	"repro/internal/sim"
)

// StreamingParams collects the streaming parameters; times are in
// milliseconds and match Sect. 4.2 of the paper.
type StreamingParams struct {
	// Mode selects the functional or Markovian flavour.
	Mode Mode
	// WithDPM controls whether the PSP power manager is present; when
	// false the DPM instance and its attachments are omitted and the NIC
	// never leaves the awake state.
	WithDPM bool
	// APCapacity and ClientCapacity are the buffer sizes (paper: 10, 10).
	APCapacity, ClientCapacity int64
	// MeanFrameInterval is the server's inter-frame time (paper: 67 ms).
	MeanFrameInterval float64
	// MeanPropagationTime is the radio propagation delay (paper: 4 ms).
	MeanPropagationTime float64
	// PropagationSigma is the normal standard deviation in the general
	// model (scaled from the rpc channel: 4 × 0.0345/0.8 ≈ 0.1725 ms).
	PropagationSigma float64
	// LossProb is the per-frame radio loss probability (paper: 0.02).
	LossProb float64
	// MeanCheckTime is the NIC's buffer-check time after waking
	// (paper: 5 ms).
	MeanCheckTime float64
	// MeanWakeTime is the doze→awake latency (paper: 15 ms).
	MeanWakeTime float64
	// MeanInitialDelay is the client's start-up buffering delay
	// (paper: 684 ms).
	MeanInitialDelay float64
	// MeanRenderInterval is the client's frame consumption period
	// (paper: 67 ms).
	MeanRenderInterval float64
	// MeanShutdownDelay is the delay between the AP buffer emptying and
	// the shutdown command (paper: 5 ms).
	MeanShutdownDelay float64
	// AwakePeriod is the PSP wakeup period (paper: swept 0–800 ms).
	AwakePeriod float64
	// DeadlineDebtCap bounds the number of outstanding missed deadlines
	// the client buffer tracks. Every missed render deadline marks one
	// future frame as late; a frame arriving more than DeadlineSlack
	// deadlines behind is stale and discarded (real-time semantics — a
	// frame far past its deadline is useless), while a frame within the
	// slack is still rendered, slipping the playout point. 0 disables
	// deadline tracking entirely — the abstraction the Markovian model
	// uses; the general model of Sect. 5.3 enables it.
	DeadlineDebtCap int64
	// DeadlineSlack is the number of deadlines a frame may be late and
	// still be rendered (jitter-buffer tolerance).
	DeadlineSlack int64
	// PowerAwake, PowerWaking and PowerDoze are the NIC power levels for
	// the energy reward (awake/checking, waking, dozing).
	PowerAwake, PowerWaking, PowerDoze float64
	// ParametricPeriod binds the PSP wakeup rate to rate slot
	// StreamingPeriodSlot instead of a plain constant, so an awake-period
	// sweep can generate the state space once and rebind the rate per
	// point (pipeline.Session.Sweep). Only meaningful in Markovian mode with
	// WithDPM and a positive AwakePeriod — a non-positive period makes
	// the wakeup immediate, a structurally different model that rebinding
	// cannot reach.
	ParametricPeriod bool
}

// StreamingPeriodSlot is the rate slot of the PSP wakeup rate when
// StreamingParams.ParametricPeriod is set: a sweep point's value for this
// slot is 1/AwakePeriod.
const StreamingPeriodSlot = 1

// DefaultStreamingParams returns the parameter set of paper Sect. 4.2.
func DefaultStreamingParams() StreamingParams {
	return StreamingParams{
		Mode:                Markovian,
		WithDPM:             true,
		APCapacity:          10,
		ClientCapacity:      10,
		MeanFrameInterval:   67,
		MeanPropagationTime: 4,
		PropagationSigma:    0.1725,
		LossProb:            0.02,
		MeanCheckTime:       5,
		MeanWakeTime:        15,
		MeanInitialDelay:    684,
		MeanRenderInterval:  67,
		MeanShutdownDelay:   5,
		AwakePeriod:         100,
		DeadlineDebtCap:     0,
		DeadlineSlack:       2,
		PowerAwake:          1,
		PowerWaking:         1.5,
		PowerDoze:           0.05,
	}
}

func (p StreamingParams) expMean(mean float64) rates.Rate {
	if p.Mode == Functional {
		return rates.UntimedRate()
	}
	if mean <= 0 {
		return rates.Inf(1, 1)
	}
	return rates.ExpRate(1 / mean)
}

// wakeupRate is the PSP wakeup annotation: the awake-period rate, bound
// to StreamingPeriodSlot when the sweep asked for a parametric period.
func (p StreamingParams) wakeupRate() rates.Rate {
	if p.ParametricPeriod && p.Mode != Functional && p.AwakePeriod > 0 {
		return rates.ExpSlot(StreamingPeriodSlot, 1/p.AwakePeriod)
	}
	return p.expMean(p.AwakePeriod)
}

func (p StreamingParams) imm(weight float64) rates.Rate {
	if p.Mode == Functional {
		return rates.UntimedRate()
	}
	return rates.Inf(1, weight)
}

func (p StreamingParams) passive() rates.Rate {
	if p.Mode == Functional {
		return rates.UntimedRate()
	}
	return rates.PassiveRate()
}

// BuildStreaming returns the streaming model of paper Sect. 2.2: server →
// access-point buffer → radio channel → power-manageable NIC → client
// buffer → renderer, plus (optionally) the PSP power manager that watches
// the AP buffer and drives the NIC's doze mode.
func BuildStreaming(p StreamingParams) (*aemilia.ArchiType, error) {
	server := aemilia.NewElemType("Server_Type", nil, []string{"send_frame"},
		aemilia.NewBehavior("Stream_Server", nil,
			aemilia.Pre("produce_frame", p.expMean(p.MeanFrameInterval),
				aemilia.Pre("send_frame", p.imm(1), aemilia.Invoke("Stream_Server")))),
	)

	// Access point with a bounded buffer. The status_* outputs are
	// observation ports polled by the DPM (self-loops, so leaving them
	// unattached — or restricting the DPM — never blocks the AP).
	n := expr.Ref("n")
	apCap := expr.Int(p.APCapacity)
	ap := aemilia.NewElemType("AP_Type",
		[]string{"receive_frame"},
		[]string{"send_frame_ap", "status_empty", "status_nonempty"},
		aemilia.NewBehavior("AP_Buffer", []aemilia.Param{aemilia.IntParam("n")},
			aemilia.Ch(
				aemilia.When(expr.Bin(expr.OpLt, n, apCap),
					aemilia.Pre("receive_frame", p.passive(),
						aemilia.Invoke("AP_Buffer", expr.Bin(expr.OpAdd, n, expr.Int(1))))),
				aemilia.When(expr.Bin(expr.OpEq, n, apCap),
					aemilia.Pre("receive_frame", p.passive(),
						aemilia.Pre("lose_frame_ap", p.imm(1), aemilia.Invoke("AP_Buffer", n)))),
				aemilia.When(expr.Bin(expr.OpGt, n, expr.Int(0)),
					aemilia.Pre("send_frame_ap", p.imm(1),
						aemilia.Invoke("AP_Buffer", expr.Bin(expr.OpSub, n, expr.Int(1))))),
				aemilia.When(expr.Bin(expr.OpEq, n, expr.Int(0)),
					aemilia.Pre("status_empty", rates.PassiveRate(), aemilia.Invoke("AP_Buffer", n))),
				aemilia.When(expr.Bin(expr.OpGt, n, expr.Int(0)),
					aemilia.Pre("status_nonempty", rates.PassiveRate(), aemilia.Invoke("AP_Buffer", n))),
			)),
	)

	keepW := 1 - p.LossProb
	channel := aemilia.NewElemType("Frame_Channel_Type",
		[]string{"get_frame"}, []string{"deliver_frame"},
		aemilia.NewBehavior("Frame_Channel", nil,
			aemilia.Pre("get_frame", p.passive(),
				aemilia.Pre("propagate_frame", p.expMean(p.MeanPropagationTime),
					aemilia.Ch(
						aemilia.Pre("keep_frame", p.imm(keepW),
							aemilia.Pre("deliver_frame", p.imm(1), aemilia.Invoke("Frame_Channel"))),
						aemilia.Pre("lose_frame", p.imm(p.LossProb), aemilia.Invoke("Frame_Channel")),
					)))),
	)

	nic := aemilia.NewElemType("NIC_Type",
		[]string{"receive_frame_nic", "receive_shutdown", "receive_wakeup"},
		[]string{"forward_frame", "monitor_nic_awake", "monitor_nic_waking", "monitor_nic_doze"},
		aemilia.NewBehavior("NIC_Awake", nil, aemilia.Ch(
			aemilia.Pre("receive_frame_nic", p.passive(),
				aemilia.Pre("forward_frame", p.imm(1), aemilia.Invoke("NIC_Awake"))),
			aemilia.Pre("receive_shutdown", p.passive(), aemilia.Invoke("NIC_Doze")),
			aemilia.Pre("monitor_nic_awake", rates.PassiveRate(), aemilia.Invoke("NIC_Awake")),
		)),
		aemilia.NewBehavior("NIC_Doze", nil, aemilia.Ch(
			aemilia.Pre("receive_wakeup", p.passive(), aemilia.Invoke("NIC_Waking")),
			aemilia.Pre("monitor_nic_doze", rates.PassiveRate(), aemilia.Invoke("NIC_Doze")),
		)),
		aemilia.NewBehavior("NIC_Waking", nil, aemilia.Ch(
			aemilia.Pre("awake_nic", p.expMean(p.MeanWakeTime), aemilia.Invoke("NIC_Checking")),
			aemilia.Pre("monitor_nic_waking", rates.PassiveRate(), aemilia.Invoke("NIC_Waking")),
		)),
		aemilia.NewBehavior("NIC_Checking", nil, aemilia.Ch(
			aemilia.Pre("check_done", p.expMean(p.MeanCheckTime), aemilia.Invoke("NIC_Awake")),
			aemilia.Pre("receive_frame_nic", p.passive(),
				aemilia.Pre("forward_frame", p.imm(1), aemilia.Invoke("NIC_Checking"))),
			aemilia.Pre("monitor_nic_awake", rates.PassiveRate(), aemilia.Invoke("NIC_Checking")),
		)),
	)

	// Client buffer with real-time deadline semantics: m is the buffer
	// occupancy, d the number of outstanding missed deadlines. A frame
	// arriving while deadlines are outstanding is stale and discarded
	// (the render position has moved past it); otherwise it is buffered,
	// overflowing into a loss when the buffer is full.
	m := expr.Ref("m")
	d := expr.Ref("d")
	bCap := expr.Int(p.ClientCapacity)
	debtCap := expr.Int(p.DeadlineDebtCap)
	slack := expr.Int(p.DeadlineSlack)
	buf := aemilia.NewElemType("Client_Buffer_Type",
		[]string{"receive_frame_b", "get_frame", "miss_frame"}, nil,
		aemilia.NewBehavior("Client_Buffer",
			[]aemilia.Param{aemilia.IntParam("m"), aemilia.IntParam("d")},
			aemilia.Ch(
				// On-time frame, room available.
				aemilia.When(expr.Bin(expr.OpAnd,
					expr.Bin(expr.OpEq, d, expr.Int(0)),
					expr.Bin(expr.OpLt, m, bCap)),
					aemilia.Pre("receive_frame_b", p.passive(),
						aemilia.Invoke("Client_Buffer",
							expr.Bin(expr.OpAdd, m, expr.Int(1)), d))),
				// On-time frame, buffer full: overflow loss.
				aemilia.When(expr.Bin(expr.OpAnd,
					expr.Bin(expr.OpEq, d, expr.Int(0)),
					expr.Bin(expr.OpEq, m, bCap)),
					aemilia.Pre("receive_frame_b", p.passive(),
						aemilia.Pre("lose_frame_b", p.imm(1),
							aemilia.Invoke("Client_Buffer", m, d)))),
				// Frame too far past its deadline: stale, discard.
				aemilia.When(expr.Bin(expr.OpGt, d, slack),
					aemilia.Pre("receive_frame_b", p.passive(),
						aemilia.Pre("discard_stale_frame", p.imm(1),
							aemilia.Invoke("Client_Buffer", m,
								expr.Bin(expr.OpSub, d, expr.Int(1)))))),
				// Late frame within the slack: still rendered, the
				// playout point slips by one deadline.
				aemilia.When(expr.Bin(expr.OpAnd,
					expr.Bin(expr.OpAnd,
						expr.Bin(expr.OpGt, d, expr.Int(0)),
						expr.Bin(expr.OpLe, d, slack)),
					expr.Bin(expr.OpLt, m, bCap)),
					aemilia.Pre("receive_frame_b", p.passive(),
						aemilia.Invoke("Client_Buffer",
							expr.Bin(expr.OpAdd, m, expr.Int(1)),
							expr.Bin(expr.OpSub, d, expr.Int(1))))),
				aemilia.When(expr.Bin(expr.OpAnd,
					expr.Bin(expr.OpAnd,
						expr.Bin(expr.OpGt, d, expr.Int(0)),
						expr.Bin(expr.OpLe, d, slack)),
					expr.Bin(expr.OpEq, m, bCap)),
					aemilia.Pre("receive_frame_b", p.passive(),
						aemilia.Pre("lose_frame_b", p.imm(1),
							aemilia.Invoke("Client_Buffer", m, d)))),
				// Client takes a frame.
				aemilia.When(expr.Bin(expr.OpGt, m, expr.Int(0)),
					aemilia.Pre("get_frame", p.passive(),
						aemilia.Invoke("Client_Buffer",
							expr.Bin(expr.OpSub, m, expr.Int(1)), d))),
				// Missed deadline: debt grows, saturating at the cap.
				aemilia.When(expr.Bin(expr.OpAnd,
					expr.Bin(expr.OpEq, m, expr.Int(0)),
					expr.Bin(expr.OpLt, d, debtCap)),
					aemilia.Pre("miss_frame", p.passive(),
						aemilia.Invoke("Client_Buffer", m,
							expr.Bin(expr.OpAdd, d, expr.Int(1))))),
				aemilia.When(expr.Bin(expr.OpAnd,
					expr.Bin(expr.OpEq, m, expr.Int(0)),
					expr.Bin(expr.OpGe, d, debtCap)),
					aemilia.Pre("miss_frame", p.passive(),
						aemilia.Invoke("Client_Buffer", m, d))),
			)),
	)

	client := aemilia.NewElemType("Video_Client_Type", nil,
		[]string{"get_frame", "miss_frame"},
		aemilia.NewBehavior("Init_Client", nil,
			aemilia.Pre("start_delay", p.expMean(p.MeanInitialDelay), aemilia.Invoke("Waiting_Period"))),
		aemilia.NewBehavior("Waiting_Period", nil,
			aemilia.Pre("render_frame", p.expMean(p.MeanRenderInterval), aemilia.Invoke("Fetching_Client"))),
		aemilia.NewBehavior("Fetching_Client", nil, aemilia.Ch(
			aemilia.Pre("get_frame", p.imm(1), aemilia.Invoke("Waiting_Period")),
			aemilia.Pre("miss_frame", p.imm(1), aemilia.Invoke("Waiting_Period")),
		)),
	)

	elems := []*aemilia.ElemType{server, ap, channel, nic, buf, client}
	insts := []*aemilia.Instance{
		aemilia.NewInstance("S", "Server_Type"),
		aemilia.NewInstance("AP", "AP_Type", expr.Int(0)),
		aemilia.NewInstance("RSC", "Frame_Channel_Type"),
		aemilia.NewInstance("NIC", "NIC_Type"),
		aemilia.NewInstance("B", "Client_Buffer_Type", expr.Int(0), expr.Int(0)),
		aemilia.NewInstance("C", "Video_Client_Type"),
	}
	atts := []aemilia.Attachment{
		aemilia.Attach("S", "send_frame", "AP", "receive_frame"),
		aemilia.Attach("AP", "send_frame_ap", "RSC", "get_frame"),
		aemilia.Attach("RSC", "deliver_frame", "NIC", "receive_frame_nic"),
		aemilia.Attach("NIC", "forward_frame", "B", "receive_frame_b"),
		aemilia.Attach("C", "get_frame", "B", "get_frame"),
		aemilia.Attach("C", "miss_frame", "B", "miss_frame"),
	}

	if p.WithDPM {
		// The PSP power manager: it observes the AP buffer becoming empty
		// (with the shutdown delay), dozes the NIC, and wakes it up
		// periodically.
		dpm := aemilia.NewElemType("DPM_Type",
			[]string{"observe_empty"},
			[]string{"send_shutdown", "send_wakeup"},
			aemilia.NewBehavior("Watch_DPM", nil,
				aemilia.Pre("observe_empty", p.expMean(p.MeanShutdownDelay), aemilia.Invoke("Shut_DPM"))),
			aemilia.NewBehavior("Shut_DPM", nil,
				aemilia.Pre("send_shutdown", p.imm(1), aemilia.Invoke("Sleep_DPM"))),
			aemilia.NewBehavior("Sleep_DPM", nil,
				aemilia.Pre("send_wakeup", p.wakeupRate(), aemilia.Invoke("Watch_DPM"))),
		)
		elems = append(elems, dpm)
		insts = append(insts, aemilia.NewInstance("DPM", "DPM_Type"))
		atts = append(atts,
			aemilia.Attach("AP", "status_empty", "DPM", "observe_empty"),
			aemilia.Attach("DPM", "send_shutdown", "NIC", "receive_shutdown"),
			aemilia.Attach("DPM", "send_wakeup", "NIC", "receive_wakeup"),
		)
	}

	a := aemilia.NewArchiType("Streaming_DPM", elems, insts, atts)
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// StreamingHighLabels returns the high (power-command) labels of the
// streaming model: everything the DPM does, including its observation of
// the AP buffer.
func StreamingHighLabels() []string {
	return []string{
		"AP.status_empty#DPM.observe_empty",
		"DPM.send_shutdown#NIC.receive_shutdown",
		"DPM.send_wakeup#NIC.receive_wakeup",
	}
}

// StreamingMeasures returns the raw reward measures from which the four
// metrics of paper Sect. 4.2 (energy per frame, loss, miss, quality) are
// derived by the experiments.
func StreamingMeasures(p StreamingParams) []measure.Measure {
	return []measure.Measure{
		{Name: "nic_energy", Clauses: []measure.Clause{
			{Instance: "NIC", Action: "monitor_nic_awake", Kind: measure.StateReward, Value: p.PowerAwake},
			{Instance: "NIC", Action: "monitor_nic_waking", Kind: measure.StateReward, Value: p.PowerWaking},
			{Instance: "NIC", Action: "monitor_nic_doze", Kind: measure.StateReward, Value: p.PowerDoze},
		}},
		{Name: "frames_delivered", Clauses: []measure.Clause{
			{Instance: "C", Action: "get_frame", Kind: measure.TransReward, Value: 1},
		}},
		{Name: "frames_missed", Clauses: []measure.Clause{
			{Instance: "C", Action: "miss_frame", Kind: measure.TransReward, Value: 1},
		}},
		{Name: "frames_sent", Clauses: []measure.Clause{
			{Instance: "S", Action: "send_frame", Kind: measure.TransReward, Value: 1},
		}},
		{Name: "frames_lost", Clauses: []measure.Clause{
			{Instance: "AP", Action: "lose_frame_ap", Kind: measure.TransReward, Value: 1},
			{Instance: "B", Action: "lose_frame_b", Kind: measure.TransReward, Value: 1},
		}},
	}
}

// StreamingGeneralDistributions returns the duration overrides of the
// general streaming model (paper Sect. 5.3): constant bit-rate video
// (deterministic frame and render intervals), deterministic NIC latencies
// and PSP periods, and a Gaussian radio channel.
func StreamingGeneralDistributions(p StreamingParams) map[sim.Activity]dist.Distribution {
	m := map[sim.Activity]dist.Distribution{
		{Instance: "S", Action: "produce_frame"}: dist.NewDet(p.MeanFrameInterval),
		{Instance: "C", Action: "start_delay"}:   dist.NewDet(p.MeanInitialDelay),
		{Instance: "C", Action: "render_frame"}:  dist.NewDet(p.MeanRenderInterval),
		{Instance: "NIC", Action: "awake_nic"}:   dist.NewDet(p.MeanWakeTime),
		{Instance: "NIC", Action: "check_done"}:  dist.NewDet(p.MeanCheckTime),
		{Instance: "RSC", Action: "propagate_frame"}: dist.NewNormal(
			p.MeanPropagationTime, p.PropagationSigma),
	}
	if p.WithDPM {
		m[sim.Activity{Instance: "DPM", Action: "observe_empty"}] = dist.NewDet(p.MeanShutdownDelay)
		if p.AwakePeriod > 0 {
			m[sim.Activity{Instance: "DPM", Action: "send_wakeup"}] = dist.NewDet(p.AwakePeriod)
		}
	}
	return m
}

// StreamingExponentialDistributions returns exponential overrides with the
// same means, for cross-validating the simulator against the CTMC
// solution (paper Sect. 5.1).
func StreamingExponentialDistributions(p StreamingParams) map[sim.Activity]dist.Distribution {
	m := map[sim.Activity]dist.Distribution{
		{Instance: "S", Action: "produce_frame"}:     dist.ExpWithMean(p.MeanFrameInterval),
		{Instance: "C", Action: "start_delay"}:       dist.ExpWithMean(p.MeanInitialDelay),
		{Instance: "C", Action: "render_frame"}:      dist.ExpWithMean(p.MeanRenderInterval),
		{Instance: "NIC", Action: "awake_nic"}:       dist.ExpWithMean(p.MeanWakeTime),
		{Instance: "NIC", Action: "check_done"}:      dist.ExpWithMean(p.MeanCheckTime),
		{Instance: "RSC", Action: "propagate_frame"}: dist.ExpWithMean(p.MeanPropagationTime),
	}
	if p.WithDPM {
		m[sim.Activity{Instance: "DPM", Action: "observe_empty"}] = dist.ExpWithMean(p.MeanShutdownDelay)
		if p.AwakePeriod > 0 {
			m[sim.Activity{Instance: "DPM", Action: "send_wakeup"}] = dist.ExpWithMean(p.AwakePeriod)
		}
	}
	return m
}

package main

import (
	"math"
	"testing"

	"repro/internal/lts"
	"repro/internal/measure"
	"repro/internal/pipeline"
)

// TestBroadcastSubscribersCounted pins that every participant of an AND
// broadcast is matched, not only the first two parts of its label: each
// frame published to three subscribers is heard by each of them, so a
// TRANS_REWARD clause on any subscriber's hear action counts exactly the
// publications, in the Markovian solution and in the simulator alike.
func TestBroadcastSubscribersCounted(t *testing.T) {
	arch, err := buildMulticast(3)
	if err != nil {
		t.Fatal(err)
	}
	trans := func(name, inst, action string) measure.Measure {
		return measure.Measure{Name: name, Clauses: []measure.Clause{
			{Instance: inst, Action: action, Kind: measure.TransReward, Value: 1},
		}}
	}
	s := pipeline.NewSession(pipeline.Spec{
		Arch: arch,
		Measures: []measure.Measure{
			trans("broadcasts", "SRC", "publish"),
			trans("heard1", "SUB1", "hear"),
			trans("heard2", "SUB2", "hear"),
			trans("heard3", "SUB3", "hear"),
		},
	}, pipeline.Config{})
	subscribers := []string{"heard1", "heard2", "heard3"}

	l, err := s.LTS()
	if err != nil {
		t.Fatal(err)
	}
	const broadcast = "SRC.publish#SUB1.hear#SUB2.hear#SUB3.hear"
	if _, ok := l.LookupLabel(broadcast); !ok {
		t.Fatalf("no %q label in the multicast state space", broadcast)
	}
	for _, p := range []struct{ inst, action string }{
		{"SRC", "publish"}, {"SUB1", "hear"}, {"SUB2", "hear"}, {"SUB3", "hear"},
	} {
		if !lts.LabelMatcherByInstance(p.inst)(broadcast) {
			t.Errorf("LabelMatcherByInstance(%q) misses %q", p.inst, broadcast)
		}
		if !lts.LabelInvolves(broadcast, p.inst+"."+p.action) {
			t.Errorf("LabelInvolves misses %s.%s in %q", p.inst, p.action, broadcast)
		}
	}
	if lts.LabelMatcherByInstance("SUB")(broadcast) || lts.LabelInvolves(broadcast, "SUB3.licence") {
		t.Errorf("matcher accepts a non-participant of %q", broadcast)
	}

	exact, err := s.Phase2()
	if err != nil {
		t.Fatal(err)
	}
	want := exact.Values["broadcasts"]
	if !(want > 0) {
		t.Fatalf("broadcast throughput %v, want > 0", want)
	}
	for _, m := range subscribers {
		if got := exact.Values[m]; math.Abs(got-want) > 1e-12*want {
			t.Errorf("Phase 2 %s = %v, want the broadcast throughput %v", m, got, want)
		}
	}

	simulated, err := s.Phase3(nil, pipeline.SimSettings{RunLength: 200, Replications: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sw := simulated.Estimates["broadcasts"].Mean
	if !(sw > 0) {
		t.Fatalf("simulated broadcast throughput %v, want > 0", sw)
	}
	for _, m := range subscribers {
		if got := simulated.Estimates[m].Mean; got != sw {
			t.Errorf("Phase 3 %s = %v, want the simulated broadcast throughput %v", m, got, sw)
		}
	}
}

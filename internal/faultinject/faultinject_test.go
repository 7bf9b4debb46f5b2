package faultinject

import (
	"errors"
	"sync"
	"testing"
)

func TestFireOnlyArmedKeys(t *testing.T) {
	p := NewPlan().Arm(SiteSweepPoint, 2, 5)
	Activate(p)
	defer Deactivate()
	if Fire(SiteSweepPoint, 1) {
		t.Fatal("unarmed key fired")
	}
	if !Fire(SiteSweepPoint, 2) || !Fire(SiteSweepPoint, 5) {
		t.Fatal("armed keys did not fire")
	}
	if Fire(SiteSolveIteration, 2) {
		t.Fatal("unarmed site fired")
	}
	if got := p.Fired(SiteSweepPoint); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("Fired = %v, want [2 5]", got)
	}
}

func TestNoActivePlanNeverFires(t *testing.T) {
	Deactivate()
	if Fire(SiteSweepPoint, 0) {
		t.Fatal("fired with no active plan")
	}
	MaybePanic(SiteSweepPoint, 0) // must not panic
}

func TestMaybePanicValue(t *testing.T) {
	Activate(NewPlan().Arm(SiteGenerateExpand, 7))
	defer Deactivate()
	defer func() {
		v := recover()
		ie, ok := v.(*InjectedError)
		if !ok {
			t.Fatalf("recovered %T, want *InjectedError", v)
		}
		if ie.Site != SiteGenerateExpand || ie.Key != 7 {
			t.Fatalf("wrong identity: %+v", ie)
		}
		var asErr *InjectedError
		if !errors.As(error(ie), &asErr) {
			t.Fatal("InjectedError should satisfy errors.As on itself")
		}
	}()
	MaybePanic(SiteGenerateExpand, 7)
	t.Fatal("unreachable: MaybePanic must panic on an armed key")
}

func TestOnFireCallback(t *testing.T) {
	var mu sync.Mutex
	var hits []int
	p := NewPlan().Arm(SiteSolveIteration, 10).OnFire(SiteSolveIteration, func(key int) {
		mu.Lock()
		hits = append(hits, key)
		mu.Unlock()
	})
	Activate(p)
	defer Deactivate()
	Fire(SiteSolveIteration, 9)
	Fire(SiteSolveIteration, 10)
	if len(hits) != 1 || hits[0] != 10 {
		t.Fatalf("callback hits = %v, want [10]", hits)
	}
}

// TestArmSeededDeterministic pins the arming determinism rule: the same
// seed arms the same keys, and firing is a pure lookup afterwards.
func TestArmSeededDeterministic(t *testing.T) {
	a := NewPlan().ArmSeeded(SiteSimReplication, 42, 3, 100)
	b := NewPlan().ArmSeeded(SiteSimReplication, 42, 3, 100)
	if len(a) != 3 {
		t.Fatalf("armed %d keys, want 3", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed armed different keys: %v vs %v", a, b)
		}
	}
	c := NewPlan().ArmSeeded(SiteSimReplication, 43, 3, 100)
	same := len(c) == len(a)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatalf("different seeds armed identical keys %v (suspicious)", a)
	}
	// n > keyspace arms the whole keyspace.
	all := NewPlan().ArmSeeded(SiteSimReplication, 1, 10, 4)
	if len(all) != 4 {
		t.Fatalf("keyspace-capped arm returned %d keys, want 4", len(all))
	}
}

func TestFireConcurrent(t *testing.T) {
	p := NewPlan().Arm(SiteGenerateExpand, 0, 1, 2, 3)
	Activate(p)
	defer Deactivate()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				Fire(SiteGenerateExpand, k)
			}
		}()
	}
	wg.Wait()
	if got := p.Fired(SiteGenerateExpand); len(got) != 4 {
		t.Fatalf("Fired = %v, want the 4 armed keys", got)
	}
}

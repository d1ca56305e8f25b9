package policy

import (
	"testing"

	"vmdeflate/internal/perfmodel"
	"vmdeflate/internal/resources"
)

func loadedVM(name string, cores, load float64) VMState {
	v := vm(name, cores, 1024, 0.5)
	v.Load = load
	return v
}

// TestLatencyAwareSparesLoadedVMs: with enough idle headroom, the loaded
// VMs are never touched — the idle VM absorbs the whole reclamation.
func TestLatencyAwareSparesLoadedVMs(t *testing.T) {
	vms := []VMState{
		loadedVM("hot", 8, 7),
		loadedVM("idle", 8, 0),
		loadedVM("warm", 8, 4),
	}
	res, err := targets(LatencyAware{}, vms, resources.New(3, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Targets["idle"].Get(resources.CPU); got != 0 {
		t.Errorf("idle VM deflated to %g cores, want 0 (no floor, no load)", got)
	}
	for _, n := range []string{"hot", "warm"} {
		if got := res.Targets[n].Get(resources.CPU); got != 8 {
			t.Errorf("%s deflated to %g cores, want untouched at 8", n, got)
		}
	}
}

// TestLatencyAwareSafeTarget pins the safe allocation to the closed-form
// model: a VM deflated in phase 1 lands exactly at the capacity its load
// needs to stay within MaxSlowdown (worst-case curve: allocation ==
// effective capacity).
func TestLatencyAwareSafeTarget(t *testing.T) {
	vms := []VMState{loadedVM("a", 8, 4), loadedVM("b", 8, 6)}
	// Need 3 cores: both VMs must give up some, but their safe targets
	// (5.333 and 6.667 -> 4 cores freed) cover it within phase 1.
	res, err := targets(LatencyAware{MaxSlowdown: 3}, vms, resources.New(3, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	wantA := perfmodel.PSCapacityForSlowdown(4, 8, 3)
	if got := res.Targets["a"].Get(resources.CPU); !almost(got, wantA) {
		t.Errorf("a deflated to %g cores, want safe target %g", got, wantA)
	}
	// b (less headroom) is only deflated because a alone cannot cover the
	// need; it too stops at its safe target.
	wantB := perfmodel.PSCapacityForSlowdown(6, 8, 3)
	if got := res.Targets["b"].Get(resources.CPU); !almost(got, wantB) {
		t.Errorf("b deflated to %g cores, want safe target %g", got, wantB)
	}
}

// TestLatencyAwareTwoPhase: when the need exceeds what latency-safe
// deflation can free, phase 2 pushes VMs to their floors — most headroom
// first, so the violation lands on as few VMs as possible.
func TestLatencyAwareTwoPhase(t *testing.T) {
	a, b := loadedVM("a", 8, 4), loadedVM("b", 8, 6)
	a.Min = resources.New(1, 0, 0, 0)
	b.Min = resources.New(1, 0, 0, 0)
	res, err := targets(LatencyAware{MaxSlowdown: 3}, []VMState{a, b}, resources.New(6, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Targets["a"].Get(resources.CPU); !almost(got, 1) {
		t.Errorf("a should hit its floor in phase 2: got %g cores, want 1", got)
	}
	wantB := perfmodel.PSCapacityForSlowdown(6, 8, 3)
	if got := res.Targets["b"].Get(resources.CPU); !almost(got, wantB) {
		t.Errorf("b should stay at its safe target %g, got %g", wantB, got)
	}
	if res.Freed.Get(resources.CPU)+feasEps < 6 {
		t.Errorf("freed %g cores, need 6", res.Freed.Get(resources.CPU))
	}
}

// TestLatencyAwareReinflation: like Deterministic, the set is recomputed
// from scratch, so a negative need simply restores everyone to Max.
func TestLatencyAwareReinflation(t *testing.T) {
	vms := []VMState{loadedVM("a", 8, 4), loadedVM("b", 8, 0)}
	vms[0].Current = resources.New(5, 1024, 0, 0)
	vms[1].Current = resources.New(1, 1024, 0, 0)
	res, err := targets(LatencyAware{}, vms, resources.New(-10, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b"} {
		if got := res.Targets[n].Get(resources.CPU); got != 8 {
			t.Errorf("%s reinflated to %g cores, want 8", n, got)
		}
	}
}

// TestLatencyAwareSlackCurve: an application curve with slack lets the
// policy deflate far below the load while still delivering the needed
// effective capacity — the curve composition the worst-case assumption
// leaves on the table.
func TestLatencyAwareSlackCurve(t *testing.T) {
	run := func(c perfmodel.Curve) float64 {
		vms := []VMState{loadedVM("a", 8, 4)}
		res, err := targets(LatencyAware{Curve: c, MaxSlowdown: 3}, vms, resources.New(2, 0, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		return res.Targets["a"].Get(resources.CPU)
	}
	worst := run(perfmodel.WorstCaseLinear)
	mem := run(perfmodel.Memcached)
	if mem >= worst {
		t.Fatalf("memcached target %g cores should be below worst-case %g", mem, worst)
	}
	needCap := perfmodel.PSCapacityForSlowdown(4, 8, 3)
	if got := perfmodel.Memcached.EffectiveCapacity(8, mem); got+1e-9 < needCap {
		t.Errorf("memcached target %g delivers %g effective cores, need %g", mem, got, needCap)
	}
}

// TestLatencyAwareOrderIndependent: the decision is a function of the VM
// set, not of slice order — the (safe fraction, name) sort is a strict
// total order even among identical VMs.
func TestLatencyAwareOrderIndependent(t *testing.T) {
	mk := func(names ...string) []VMState {
		out := make([]VMState, len(names))
		for i, n := range names {
			out[i] = loadedVM(n, 8, 4)
		}
		return out
	}
	need := resources.New(2, 0, 0, 0) // one VM's safe deflation covers it
	for _, perm := range [][]string{{"a", "b", "c"}, {"c", "a", "b"}, {"b", "c", "a"}} {
		res, err := targets(LatencyAware{}, mk(perm...), need)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Targets["a"].Get(resources.CPU); got == 8 {
			t.Errorf("perm %v: tie-break should deflate a first, but a is untouched", perm)
		}
		for _, n := range []string{"b", "c"} {
			if got := res.Targets[n].Get(resources.CPU); got != 8 {
				t.Errorf("perm %v: %s deflated to %g, want untouched", perm, n, got)
			}
		}
	}
}

// TestLatencyAwareInsufficient: floors bound the policy exactly like
// every other policy, so admission decisions (and hence admitted load)
// cannot differ between latency-aware and proportional.
func TestLatencyAwareInsufficient(t *testing.T) {
	a := loadedVM("a", 4, 0)
	a.Min = resources.New(2, 512, 0, 0)
	res, err := targets(LatencyAware{}, []VMState{a}, resources.New(3, 0, 0, 0))
	if err == nil {
		t.Fatal("need beyond floors should fail")
	}
	if got := res.Targets["a"].Get(resources.CPU); !almost(got, 2) {
		t.Errorf("best-effort target %g cores, want floor 2", got)
	}
}

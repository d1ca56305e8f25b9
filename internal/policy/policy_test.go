package policy

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"vmdeflate/internal/resources"
)

func vm(name string, cores, memMB float64, prio float64) VMState {
	max := resources.New(cores, memMB, 0, 0)
	return VMState{Name: name, Max: max, Current: max, Priority: prio}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestByName(t *testing.T) {
	for _, n := range []string{"proportional", "priority", "deterministic", "latency"} {
		p, err := ByName(n)
		if err != nil || p.Name() != n {
			t.Errorf("ByName(%q) = %v, %v", n, p, err)
		}
	}
	if _, err := ByName("x"); err == nil {
		t.Error("unknown policy should fail")
	}
}

// Equation 1: two equal VMs, reclaim R -> each gives R/2; allocations
// shrink proportionally to size.
func TestProportionalEquation1(t *testing.T) {
	vms := []VMState{vm("a", 8, 8192, 0.5), vm("b", 4, 4096, 0.5)}
	need := resources.New(6, 6144, 0, 0)
	res, err := targets(Proportional{}, vms, need)
	if err != nil {
		t.Fatal(err)
	}
	// alpha1 = 1 - R/sum(Mi) = 1 - 6/12 = 0.5 -> a: 4 cores, b: 2 cores.
	if got := res.Targets["a"].Get(resources.CPU); !almost(got, 4) {
		t.Errorf("a cpu = %v, want 4", got)
	}
	if got := res.Targets["b"].Get(resources.CPU); !almost(got, 2) {
		t.Errorf("b cpu = %v, want 2", got)
	}
	if got := res.Targets["a"].Get(resources.Memory); !almost(got, 4096) {
		t.Errorf("a mem = %v, want 4096", got)
	}
	if !almost(res.Freed.Get(resources.CPU), 6) {
		t.Errorf("freed cpu = %v", res.Freed.Get(resources.CPU))
	}
}

// Equation 2: minimum allocations are honoured and reclaim happens in
// the deflatable range only.
func TestProportionalEquation2Minimums(t *testing.T) {
	a := vm("a", 8, 8192, 0.5)
	a.Min = resources.New(4, 4096, 0, 0)
	b := vm("b", 8, 8192, 0.5)
	b.Min = resources.New(2, 2048, 0, 0)
	vms := []VMState{a, b}
	// Deflatable range: a: 4, b: 6 => total 10. Reclaim 5 -> alpha2 = 0.5.
	res, err := targets(Proportional{}, vms, resources.New(5, 5120, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Targets["a"].Get(resources.CPU); !almost(got, 4+0.5*4) {
		t.Errorf("a cpu = %v, want 6", got)
	}
	if got := res.Targets["b"].Get(resources.CPU); !almost(got, 2+0.5*6) {
		t.Errorf("b cpu = %v, want 5", got)
	}
	// Floors never violated.
	for _, v := range vms {
		tgt := res.Targets[v.Name]
		if !v.Min.FitsIn(tgt) {
			t.Errorf("%s target %v below min %v", v.Name, tgt, v.Min)
		}
	}
}

func TestProportionalInsufficient(t *testing.T) {
	a := vm("a", 4, 4096, 0.5)
	a.Min = resources.New(2, 2048, 0, 0)
	res, err := targets(Proportional{}, []VMState{a}, resources.New(3, 0, 0, 0))
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("want ErrInsufficient, got %v", err)
	}
	// Best effort: a is at its floor.
	if got := res.Targets["a"].Get(resources.CPU); !almost(got, 2) {
		t.Errorf("best effort = %v, want floor 2", got)
	}
	if !almost(res.Freed.Get(resources.CPU), 2) {
		t.Errorf("freed = %v, want 2", res.Freed.Get(resources.CPU))
	}
}

func TestProportionalReinflation(t *testing.T) {
	a := vm("a", 8, 8192, 0.5)
	a.Current = resources.New(4, 4096, 0, 0)
	b := vm("b", 4, 4096, 0.5)
	b.Current = resources.New(2, 2048, 0, 0)
	// Free resources appeared: R = -Rfree (Section 5.1.3).
	res, err := targets(Proportional{}, []VMState{a, b}, resources.New(-3, -3072, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Total current 6 cores, desired 9, max 12 -> alpha = 9/12 = 0.75.
	if got := res.Targets["a"].Get(resources.CPU); !almost(got, 6) {
		t.Errorf("a cpu = %v, want 6", got)
	}
	if got := res.Targets["b"].Get(resources.CPU); !almost(got, 3) {
		t.Errorf("b cpu = %v, want 3", got)
	}
	if !almost(res.Freed.Get(resources.CPU), -3) {
		t.Errorf("freed = %v, want -3", res.Freed.Get(resources.CPU))
	}
}

func TestProportionalFullReinflationCapsAtMax(t *testing.T) {
	a := vm("a", 8, 8192, 0.5)
	a.Current = resources.New(4, 4096, 0, 0)
	res, err := targets(Proportional{}, []VMState{a}, resources.New(-100, -100000, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets["a"] != a.Max {
		t.Errorf("target = %v, want max %v", res.Targets["a"], a.Max)
	}
}

// Equation 3: lower priority -> more deflation.
func TestPriorityWeighting(t *testing.T) {
	vms := []VMState{vm("low", 8, 8192, 0.25), vm("high", 8, 8192, 0.75)}
	res, err := targets(Priority{}, vms, resources.New(8, 8192, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	low := res.Targets["low"].Get(resources.CPU)
	high := res.Targets["high"].Get(resources.CPU)
	if low >= high {
		t.Errorf("low-priority VM should be deflated more: low=%v high=%v", low, high)
	}
	if !almost(low+high, 8) {
		t.Errorf("total = %v, want 8", low+high)
	}
	// Check against closed form: alpha3 = (sum(Mi)-R)/sum(pi*Mi) = (16-8)/(0.25*8+0.75*8) = 1.
	if !almost(low, 0.25*8) || !almost(high, 0.75*8) {
		t.Errorf("closed form mismatch: low=%v high=%v", low, high)
	}
}

func TestPriorityClampAtMax(t *testing.T) {
	// Tiny reclaim: naive alpha would push the high-priority VM above its
	// max; water-filling must clamp and shift the burden.
	vms := []VMState{vm("low", 8, 8192, 0.1), vm("high", 8, 8192, 0.9)}
	res, err := targets(Priority{}, vms, resources.New(1, 1024, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vms {
		tgt := res.Targets[v.Name]
		if !tgt.FitsIn(v.Max) {
			t.Errorf("%s target %v exceeds max", v.Name, tgt)
		}
	}
	if !almost(res.Freed.Get(resources.CPU), 1) {
		t.Errorf("freed = %v, want 1", res.Freed.Get(resources.CPU))
	}
}

func TestPriorityZeroPriorityVM(t *testing.T) {
	vms := []VMState{vm("z", 4, 4096, 0)}
	if _, err := targets((Priority{}), vms, resources.New(1, 0, 0, 0)); err != nil {
		t.Errorf("zero priority should not break the formula: %v", err)
	}
}

func TestDeterministicBinary(t *testing.T) {
	vms := []VMState{
		vm("a", 8, 8192, 0.25),
		vm("b", 8, 8192, 0.50),
		vm("c", 8, 8192, 0.75),
	}
	// Need 6 cores: deflating "a" (lowest priority) to 0.25*8=2 frees 6.
	res, err := targets(Deterministic{}, vms, resources.New(6, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Targets["a"].Get(resources.CPU); !almost(got, 2) {
		t.Errorf("a = %v, want deflated 2", got)
	}
	// b and c stay full.
	if got := res.Targets["b"].Get(resources.CPU); !almost(got, 8) {
		t.Errorf("b = %v, want full 8", got)
	}
	if got := res.Targets["c"].Get(resources.CPU); !almost(got, 8) {
		t.Errorf("c = %v, want full 8", got)
	}
}

func TestDeterministicCascades(t *testing.T) {
	vms := []VMState{
		vm("a", 8, 8192, 0.25),
		vm("b", 8, 8192, 0.50),
		vm("c", 8, 8192, 0.75),
	}
	// Need 9 cores: a frees 6, b frees 4 -> both deflated, c full.
	res, err := targets(Deterministic{}, vms, resources.New(9, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Targets["a"].Get(resources.CPU); !almost(got, 2) {
		t.Errorf("a = %v", got)
	}
	if got := res.Targets["b"].Get(resources.CPU); !almost(got, 4) {
		t.Errorf("b = %v", got)
	}
	if got := res.Targets["c"].Get(resources.CPU); !almost(got, 8) {
		t.Errorf("c = %v", got)
	}
	if res.Freed.Get(resources.CPU) < 9 {
		t.Errorf("freed = %v", res.Freed.Get(resources.CPU))
	}
}

func TestDeterministicReinflation(t *testing.T) {
	vms := []VMState{
		vm("a", 8, 8192, 0.25),
		vm("b", 8, 8192, 0.50),
	}
	vms[0].Current = resources.New(2, 2048, 0, 0) // deflated
	vms[1].Current = resources.New(4, 4096, 0, 0) // deflated
	// Pressure mostly gone: only 2 CPU still needed below full. The
	// higher-priority VM (b) reinflates fully first; a absorbs the rest.
	res, err := targets(Deterministic{}, vms, resources.New(-8, -8192, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Targets["b"].Get(resources.CPU); !almost(got, 8) {
		t.Errorf("b should reinflate first: %v", got)
	}
	if got := res.Targets["a"].Get(resources.CPU); !almost(got, 2) {
		t.Errorf("a stays deflated: %v", got)
	}
}

func TestDeterministicInsufficient(t *testing.T) {
	vms := []VMState{vm("a", 4, 4096, 0.5)}
	_, err := targets(Deterministic{}, vms, resources.New(3, 0, 0, 0))
	if !errors.Is(err, ErrInsufficient) {
		t.Errorf("want ErrInsufficient, got %v", err)
	}
}

func TestDeterministicRespectsMin(t *testing.T) {
	a := vm("a", 8, 8192, 0.1)
	a.Min = resources.New(4, 4096, 0, 0)
	res, _ := targets(Deterministic{}, []VMState{a}, resources.New(10, 0, 0, 0))
	if got := res.Targets["a"].Get(resources.CPU); !almost(got, 4) {
		t.Errorf("deflated below floor: %v", got)
	}
}

func TestEmptyVMList(t *testing.T) {
	for _, p := range []Policy{Proportional{}, Priority{}, Deterministic{}} {
		res, err := targets(p, nil, resources.New(1, 0, 0, 0))
		if !errors.Is(err, ErrInsufficient) {
			t.Errorf("%s: empty list should be insufficient, got %v", p.Name(), err)
		}
		if len(res.Targets) != 0 {
			t.Errorf("%s: targets should be empty", p.Name())
		}
	}
}

func TestZeroNeedIsNoOpOrReinflate(t *testing.T) {
	// VMs already deflated + zero need => proportional redistributes back
	// to full (desired total = current total... but range allows more).
	a := vm("a", 8, 8192, 0.5)
	for _, p := range []Policy{Proportional{}, Priority{}, Deterministic{}} {
		res, err := targets(p, []VMState{a}, resources.Vector{})
		if err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
		if got := res.Targets["a"]; !got.FitsIn(a.Max) {
			t.Errorf("%s: target %v exceeds max", p.Name(), got)
		}
	}
}

func TestPriorityFromP95(t *testing.T) {
	cases := []struct {
		p95  float64
		want float64
	}{
		{0, 0.25}, {10, 0.25}, {24.9, 0.25},
		{25, 0.50}, {49, 0.50},
		{50, 0.75}, {74, 0.75},
		{75, 1.0}, {100, 1.0}, {150, 1.0}, {-5, 0.25},
	}
	for _, c := range cases {
		if got := PriorityFromP95(c.p95, 4); !almost(got, c.want) {
			t.Errorf("PriorityFromP95(%v, 4) = %v, want %v", c.p95, got, c.want)
		}
	}
	if got := PriorityFromP95(50, 0); got != 1 {
		t.Errorf("degenerate levels: %v", got)
	}
}

// Property: for any need and any policy, targets stay within [Min, Max]
// and, when no error is returned, the freed amount covers the need.
func TestQuickPolicyInvariants(t *testing.T) {
	policies := []Policy{Proportional{}, Priority{}, Deterministic{}}
	f := func(sizes []uint8, needRaw uint16, pi uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		vms := make([]VMState, len(sizes))
		var totalCPU float64
		for i, s := range sizes {
			cores := float64(s%16) + 1
			prio := float64(s%4+1) / 4
			v := vm(string(rune('a'+i)), cores, cores*1024, prio)
			v.Min = v.Max.Scale(float64(s%3) * 0.2) // 0, 20% or 40% floor
			vms[i] = v
			totalCPU += cores
		}
		need := resources.New(float64(needRaw%64), float64(needRaw%64)*512, 0, 0)
		p := policies[int(pi)%len(policies)]
		res, err := targets(p, vms, need)
		for _, v := range vms {
			tgt, ok := res.Targets[v.Name]
			if !ok {
				return false
			}
			if !tgt.FitsIn(v.Max) {
				return false
			}
			if !v.Min.Scale(1 - 1e-9).FitsIn(tgt) {
				return false
			}
		}
		if err == nil {
			for _, k := range resources.Kinds {
				if res.Freed.Get(k)+1e-6 < need.Get(k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: proportional deflation preserves ordering — a VM with a
// strictly larger deflatable range never ends with a smaller allocation
// than an identical-floor smaller VM.
func TestQuickProportionalMonotone(t *testing.T) {
	f := func(aRaw, bRaw uint8, needRaw uint8) bool {
		a := float64(aRaw%16) + 2
		b := float64(bRaw%16) + 2
		if a == b {
			return true
		}
		vms := []VMState{vm("a", a, a*1024, 0.5), vm("b", b, b*1024, 0.5)}
		need := resources.New(float64(needRaw)/255*(a+b-1), 0, 0, 0)
		res, err := targets(Proportional{}, vms, need)
		if err != nil {
			return true
		}
		ta := res.Targets["a"].Get(resources.CPU)
		tb := res.Targets["b"].Get(resources.CPU)
		if a > b {
			return ta >= tb-1e-9
		}
		return tb >= ta-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

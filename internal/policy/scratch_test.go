package policy

import (
	"errors"
	"testing"
	"testing/quick"

	"vmdeflate/internal/resources"
)

// TestTargetsIntoMatchesTargets is the scratch-API differential: for
// randomized fleets and needs, the slice-backed TargetsInto and the
// map-backed targets helper must produce bit-for-bit identical targets and
// Freed vectors, and agree on feasibility, for every policy.
func TestTargetsIntoMatchesTargets(t *testing.T) {
	policies := []Policy{Proportional{}, Priority{}, Deterministic{}}
	var scratch Scratch // deliberately reused across iterations
	f := func(sizes []uint8, needRaw uint16, pi uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		vms := make([]VMState, len(sizes))
		for i, s := range sizes {
			cores := float64(s%16) + 1
			prio := float64(s%4+1) / 4
			v := vm(string(rune('a'+i)), cores, cores*1024, prio)
			v.Min = v.Max.Scale(float64(s%3) * 0.2)
			if s%5 == 0 {
				v.Current = v.Max.Scale(0.5) // some already deflated
			}
			vms[i] = v
		}
		need := resources.New(float64(needRaw%64)-8, (float64(needRaw%64)-8)*512, 0, 0)
		p := policies[int(pi)%len(policies)]

		mapRes, mapErr := targets(p, vms, need)
		sliceRes, sliceErr := p.TargetsInto(vms, need, &scratch)

		if errors.Is(mapErr, ErrInsufficient) != errors.Is(sliceErr, ErrInsufficient) {
			t.Logf("feasibility disagreement: map=%v slice=%v", mapErr, sliceErr)
			return false
		}
		if mapRes.Freed != sliceRes.Freed {
			t.Logf("freed: map=%v slice=%v", mapRes.Freed, sliceRes.Freed)
			return false
		}
		if len(sliceRes.Targets) != len(vms) || len(mapRes.Targets) != len(vms) {
			return false
		}
		for i := range vms {
			if mapRes.Targets[vms[i].Name] != sliceRes.Targets[i] {
				t.Logf("%s: map=%v slice=%v", vms[i].Name, mapRes.Targets[vms[i].Name], sliceRes.Targets[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
}

// TestTargetsIntoZeroAllocs asserts the scratch API's reason to exist:
// once the Scratch buffers are warm, a policy pass performs zero heap
// allocations — for every policy, both deflation and reinflation.
func TestTargetsIntoZeroAllocs(t *testing.T) {
	vms := []VMState{
		vm("a", 8, 8192, 0.25),
		vm("b", 8, 8192, 0.50),
		vm("c", 4, 4096, 0.75),
		vm("d", 16, 16384, 1.0),
	}
	deflate := resources.New(10, 10240, 0, 0)
	reinflate := resources.New(-10, -10240, 0, 0)
	for _, p := range []Policy{Proportional{}, Priority{}, Deterministic{}, LatencyAware{}} {
		var s Scratch
		for _, need := range []resources.Vector{deflate, reinflate} {
			need := need
			got := testing.AllocsPerRun(200, func() {
				if _, err := p.TargetsInto(vms, need, &s); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Errorf("%s: TargetsInto(need=%v) allocates %.1f allocs/op, want 0", p.Name(), need, got)
			}
		}
	}
}

// TestTargetsIntoNilScratch keeps the one-shot form working: a nil
// Scratch must behave exactly like a fresh one.
func TestTargetsIntoNilScratch(t *testing.T) {
	vms := []VMState{vm("a", 8, 8192, 0.5), vm("b", 4, 4096, 0.5)}
	need := resources.New(6, 6144, 0, 0)
	for _, p := range []Policy{Proportional{}, Priority{}, Deterministic{}, LatencyAware{}} {
		var s Scratch
		withScratch, err1 := p.TargetsInto(vms, need, &s)
		nilScratch, err2 := p.TargetsInto(vms, need, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: err mismatch: %v vs %v", p.Name(), err1, err2)
		}
		if withScratch.Freed != nilScratch.Freed {
			t.Errorf("%s: freed mismatch", p.Name())
		}
		for i := range vms {
			if withScratch.Targets[i] != nilScratch.Targets[i] {
				t.Errorf("%s: target %d mismatch", p.Name(), i)
			}
		}
	}
}

package policy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vmdeflate/internal/perfmodel"
	"vmdeflate/internal/resources"
)

// fuzzBytes decodes a fuzz input one byte at a time; past the end it
// yields zeros.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (r *fuzzBytes) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

// fraction decodes a byte into one of 0, 1/4, 1/2, 3/4 and 1.
func (r *fuzzBytes) fraction() float64 { return float64(r.next()%5) / 4 }

// decodeTargetsCase decodes a byte string into a policy, a fleet of
// finite VM states with Min <= Current <= Max on every dimension (zero
// ranges, VMs at their floors and deflated VMs included), and a need
// whose components take either sign. Three trailing bytes, decoded
// last so that shorter inputs keep their meaning, zero the priority of
// the VMs a 12-bit mask names (priorityWeight's 1e-3 case) and pin
// every VM to its floor on the dimensions a 4-bit mask names (a
// floors-only dimension, which the water-fill skips).
func decodeTargetsCase(data []byte) (Policy, []VMState, resources.Vector) {
	r := &fuzzBytes{data: data}
	var p Policy
	switch r.next() % 4 {
	case 0:
		p = Proportional{}
	case 1:
		p = Priority{}
	case 2:
		p = Deterministic{}
	default:
		curve := perfmodel.Curve{}
		if r.next()%2 == 1 {
			curve = perfmodel.Kcompile
		}
		p = LatencyAware{Curve: curve, MaxSlowdown: float64(r.next()) / 32}
	}
	vms := make([]VMState, r.next()%13)
	for i := range vms {
		vm := VMState{Name: fmt.Sprintf("vm-%02d", i)}
		for _, k := range resources.Kinds {
			max := float64(r.next()) / 4
			min := max * r.fraction()
			vm.Max[k], vm.Min[k] = max, min
			vm.Current[k] = min + (max-min)*r.fraction()
		}
		vm.Priority = float64(r.next()%8+1) / 8
		vm.Load = float64(r.next()) / 16
		vms[i] = vm
	}
	var need resources.Vector
	for _, k := range resources.Kinds {
		need[k] = float64(r.next()-128) / 4
	}
	zeroPri := r.next() | r.next()<<8
	flat := r.next()
	for i := range vms {
		if zeroPri&(1<<i) != 0 {
			vms[i].Priority = 0
		}
		for _, k := range resources.Kinds {
			if flat&(1<<k) != 0 {
				vms[i].Min[k], vms[i].Current[k] = vms[i].Max[k], vms[i].Max[k]
			}
		}
	}
	return p, vms, need
}

// sameBits reports whether a and b are bit-for-bit equal.
func sameBits(a, b resources.Vector) bool {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// FuzzTargetsInto holds every policy's TargetsInto to its contract on
// decoded fleets and needs:
//   - every target is finite and within [Min, Max] (± 1e-9) on every
//     dimension;
//   - the only error is ErrInsufficient, and without it Freed covers the
//     need within feasEps;
//   - a Scratch reused from an earlier pass on another fleet gives the
//     same bits as a fresh one;
//   - the decision equals the map-form Targets;
//   - Proportional and Priority equal the water-fill they replaced
//     (oracleTargets) bit for bit: every target, Freed and the error.
func FuzzTargetsInto(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 16; seed++ {
		data := make([]byte, 8+seed*16)
		rng.Read(data)
		data[0] = byte(seed % 4) // every policy, on fleets of growing size
		f.Add(data)
	}
	// Proportional and Priority fleets with zero priorities and
	// floors-only dimensions: the trailing masks past the need.
	for seed := 0; seed < 8; seed++ {
		n := 1 + seed%12
		data := make([]byte, 2+n*10+4+3)
		rng.Read(data)
		data[0], data[1] = byte(seed%2), byte(n)
		data[len(data)-1] = byte(seed)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, vms, need := decodeTargetsCase(data)
		fresh, err := p.TargetsInto(vms, need, &Scratch{})
		if err != nil && !errors.Is(err, ErrInsufficient) {
			t.Fatalf("%s: unexpected error %v", p.Name(), err)
		}
		for i, vm := range vms {
			for _, k := range resources.Kinds {
				v := fresh.Targets[i][k]
				if math.IsNaN(v) || math.IsInf(v, 0) || v < vm.Min[k]-1e-9 || v > vm.Max[k]+1e-9 {
					t.Fatalf("%s: %s target %v on %v outside [%v, %v]", p.Name(), vm.Name, v, k, vm.Min[k], vm.Max[k])
				}
			}
		}
		if err == nil {
			for _, k := range resources.Kinds {
				if fresh.Freed[k] < need[k]-feasEps {
					t.Fatalf("%s: no error, yet freed %v of %v needed on %v", p.Name(), fresh.Freed[k], need[k], k)
				}
			}
		}
		// A fresh result is backed by its own Scratch: copy it out before
		// the reused one runs.
		want := append([]resources.Vector(nil), fresh.Targets...)

		// Dirty a Scratch on a larger fleet, then rerun the case on it.
		var reused Scratch
		bigger := append(append([]VMState(nil), vms...), vms...)
		for i := len(vms); i < len(bigger); i++ {
			bigger[i].Name += "-twin"
		}
		if _, err := p.TargetsInto(bigger, need.Scale(-1), &reused); err != nil && !errors.Is(err, ErrInsufficient) {
			t.Fatal(err)
		}
		again, err2 := p.TargetsInto(vms, need, &reused)
		if (err == nil) != (err2 == nil) || !sameBits(again.Freed, fresh.Freed) {
			t.Fatalf("%s: reused Scratch freed %v (err %v), fresh %v (err %v)", p.Name(), again.Freed, err2, fresh.Freed, err)
		}
		for i := range vms {
			if !sameBits(again.Targets[i], want[i]) {
				t.Fatalf("%s: %s reused Scratch target %v, fresh %v", p.Name(), vms[i].Name, again.Targets[i], want[i])
			}
		}

		switch p.(type) {
		case Proportional, Priority:
			o, oerr := oracleTargets(p, vms, need)
			if oerr != err || !sameBits(o.Freed, fresh.Freed) {
				t.Fatalf("%s: freed %v (err %v), the oracle %v (err %v)", p.Name(), fresh.Freed, err, o.Freed, oerr)
			}
			for i := range vms {
				if !sameBits(o.Targets[i], want[i]) {
					t.Fatalf("%s: %s target %v, the oracle %v", p.Name(), vms[i].Name, want[i], o.Targets[i])
				}
			}
		}

		m, err3 := targets(p, vms, need)
		if errors.Is(err3, ErrInsufficient) != (err != nil) || !sameBits(m.Freed, fresh.Freed) || len(m.Targets) != len(vms) {
			t.Fatalf("%s: map form freed %v (err %v), slice form %v (err %v)", p.Name(), m.Freed, err3, fresh.Freed, err)
		}
		for i, vm := range vms {
			if !sameBits(m.Targets[vm.Name], want[i]) {
				t.Fatalf("%s: %s map target %v, slice %v", p.Name(), vm.Name, m.Targets[vm.Name], want[i])
			}
		}
	})
}

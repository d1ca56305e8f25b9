package policy

import "vmdeflate/internal/resources"

// The proportional family's water-fill as it was before a pass computed
// weights once, summed only the Current total and skipped floors-only
// dimensions: the per-dimension solver reads every weight by value, on
// every dimension. Kept verbatim, renamed (its entries, whose type the
// Scratch no longer holds, in a slice of their own), as the oracle
// FuzzTargetsInto holds Proportional and Priority to bit for bit.

// oracleTargets is the oracle's TargetsInto for Proportional and
// Priority; any other policy has no oracle here.
func oracleTargets(p Policy, vms []VMState, need resources.Vector) (SliceResult, error) {
	weight := oracleUnitWeight
	if _, ok := p.(Priority); ok {
		weight = oraclePriorityWeight
	}
	return oracleWeightedTargetsInto(vms, need, weight, &Scratch{})
}

// oracleTotals sums Max, Min and Current across vms.
func oracleTotals(vms []VMState) (max, min, cur resources.Vector) {
	for _, vm := range vms {
		max = max.Add(vm.Max)
		min = min.Add(vm.Min)
		cur = cur.Add(vm.Current)
	}
	return
}

func oracleUnitWeight(VMState) float64 { return 1 }

func oraclePriorityWeight(vm VMState) float64 {
	p := vm.Priority
	if p <= 0 {
		p = 1e-3 // avoid a zero weight freezing the formula
	}
	return p
}

// oracleWeightedTargetsInto computes, per resource k, allocations of the form
//
//	new_i = clamp(m_i + alpha * w_i * (M_i - m_i), m_i, M_i)
//
// with alpha chosen so that the total allocation drops by need[k]
// relative to the current total. VMs that clamp at M_i are frozen and
// alpha is recomputed over the rest (water-filling); this degenerates to
// the paper's closed-form alpha when no clamp binds, and handles
// reinflation (negative need) with the same code path.
func oracleWeightedTargetsInto(vms []VMState, need resources.Vector, weight func(VMState) float64, s *Scratch) (SliceResult, error) {
	if s == nil {
		s = &Scratch{}
	}
	targets := s.grow(len(vms))
	for i := range vms {
		targets[i] = vms[i].Min // start from floors, fill below
	}
	_, _, curTotal := oracleTotals(vms)

	for _, k := range resources.Kinds {
		// Desired total allocation after this decision.
		desired := curTotal.Get(k) - need.Get(k)
		oracleSolveDimension(vms, k, desired, weight, targets, s)
	}
	return finishSlice(vms, targets, need)
}

// oracleWFEntry is one VM's water-filling state for a single dimension.
type oracleWFEntry struct {
	idx     int
	w       float64
	rangeK  float64
	clamped bool
}

// oracleSolveDimension performs the per-resource water-filling described on
// oracleWeightedTargetsInto, writing new_i into targets[i][k]. All working
// state lives in s.entries, reused across dimensions and passes.
func oracleSolveDimension(vms []VMState, k resources.Kind, desired float64, weight func(VMState) float64, targets []resources.Vector, s *Scratch) {
	entries := make([]oracleWFEntry, 0, len(vms)) // was s.entries[:0]
	floorSum := 0.0
	for i := range vms {
		vm := &vms[i]
		r := vm.Max.Get(k) - vm.Min.Get(k)
		if r < 0 {
			r = 0
		}
		entries = append(entries, oracleWFEntry{idx: i, w: weight(*vm), rangeK: r})
		floorSum += vm.Min.Get(k)
	}

	// Clamp the desired total into the feasible band.
	maxSum := floorSum
	for _, e := range entries {
		maxSum += e.rangeK
	}
	if desired < floorSum {
		desired = floorSum
	}
	if desired > maxSum {
		desired = maxSum
	}

	// Water-filling iterations: at most len(entries) rounds, since each
	// round clamps at least one VM or terminates.
	for round := 0; round <= len(entries); round++ {
		var wSum, clampedSum, freeFloor float64
		for _, e := range entries {
			if e.clamped {
				clampedSum += vms[e.idx].Max.Get(k)
				continue
			}
			wSum += e.w * e.rangeK
			freeFloor += vms[e.idx].Min.Get(k)
		}
		if wSum <= 0 {
			// No deflatable range left: everyone at floor or clamped.
			for i := range entries {
				e := &entries[i]
				v := vms[e.idx].Min.Get(k)
				if e.clamped {
					v = vms[e.idx].Max.Get(k)
				}
				targets[e.idx][k] = v
			}
			return
		}
		alpha := (desired - clampedSum - freeFloor) / wSum
		if alpha < 0 {
			alpha = 0
		}
		newClamp := false
		for i := range entries {
			e := &entries[i]
			if e.clamped {
				continue
			}
			v := vms[e.idx].Min.Get(k) + alpha*e.w*e.rangeK
			if v >= vms[e.idx].Max.Get(k) {
				e.clamped = true
				newClamp = true
			}
		}
		if !newClamp {
			for i := range entries {
				e := &entries[i]
				v := vms[e.idx].Max.Get(k)
				if !e.clamped {
					v = vms[e.idx].Min.Get(k) + alpha*e.w*e.rangeK
				}
				targets[e.idx][k] = v
			}
			return
		}
	}
}

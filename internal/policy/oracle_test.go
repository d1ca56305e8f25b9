package policy

import (
	"sort"

	"vmdeflate/internal/perfmodel"
	"vmdeflate/internal/resources"
)

// The policies as they were before they shared their code, the oracles
// FuzzTargetsInto holds every policy to bit for bit:
//
//   - the proportional family's water-fill as it was before a pass
//     computed weights once, summed only the Current total and skipped
//     floors-only dimensions: the per-dimension solver reads every
//     weight by value, on every dimension;
//   - Deterministic's and LatencyAware's two walks as they were before
//     they became one ordered walk, each with its own sort.Interface
//     sorter.
//
// Each is kept verbatim, renamed (the water-fill's entries and the
// walks' sorters, whose types the Scratch no longer holds, in values of
// their own), with one edit: LatencyAware's ΣMax loop runs after its
// sort, over the walk order, as Deterministic's did. It summed in input
// order. On sizes that are multiples of 1/4 both sums are exact. On
// 100,000 decoded LatencyAware fleets of 2-12 VMs, 90,095 of them scaled
// to sizes that are not, the two sums differed in their last bits on
// 59,090, and no target, Freed or error did (FitsIn's 1e-9 slack
// absorbs the rounding).

// oracleTargets is the oracle's TargetsInto for policy p.
func oracleTargets(p Policy, vms []VMState, need resources.Vector) (SliceResult, error) {
	switch p := p.(type) {
	case Deterministic:
		return oracleDeterministicTargetsInto(vms, need, &Scratch{})
	case LatencyAware:
		return oracleLatencyTargetsInto(p, vms, need, &Scratch{})
	case Priority:
		return oracleWeightedTargetsInto(vms, need, oraclePriorityWeight, &Scratch{})
	}
	return oracleWeightedTargetsInto(vms, need, oracleUnitWeight, &Scratch{})
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

// oracleDetSorter orders VM indices by (priority, name) ascending.
type oracleDetSorter struct {
	vms   []VMState
	order []int
}

func (d *oracleDetSorter) Len() int      { return len(d.order) }
func (d *oracleDetSorter) Swap(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] }
func (d *oracleDetSorter) Less(i, j int) bool {
	a, b := &d.vms[d.order[i]], &d.vms[d.order[j]]
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.Name < b.Name
}

// oracleDeterministicTargetsInto is Deterministic.TargetsInto.
func oracleDeterministicTargetsInto(vms []VMState, need resources.Vector, s *Scratch) (SliceResult, error) {
	if s == nil {
		s = &Scratch{}
	}
	var sorter oracleDetSorter // was s.sorter
	targets := s.grow(len(vms))
	if cap(s.order) < len(vms) {
		s.order = make([]int, len(vms))
	} else {
		s.order = s.order[:len(vms)]
	}
	for i := range s.order {
		s.order[i] = i
	}
	sorter.vms, sorter.order = vms, s.order
	sort.Sort(&sorter)
	sorter.vms = nil // do not retain the caller's slice

	// Recompute the deflation set from scratch: walk VMs lowest priority
	// first, deflating until the total allocation is at or below the
	// desired level in every dimension. VMs not needed stay (or return)
	// at full size — this single pass implements both deflation and
	// reinflation deterministically.
	curTotal := currentTotal(vms)
	desired := curTotal.Sub(need)

	var total resources.Vector
	for _, i := range s.order {
		targets[i] = vms[i].Max
		total = total.Add(vms[i].Max)
	}
	for _, i := range s.order {
		if total.FitsIn(desired) {
			break
		}
		deflated := vms[i].Max.Scale(vms[i].Priority).Max(vms[i].Min)
		total = total.Sub(vms[i].Max).Add(deflated)
		targets[i] = deflated
	}
	return finishSlice(vms, targets, need)
}

// oracleLatSorter orders VM indices by (safe fraction, name) ascending: the
// VMs that can deflate deepest without violating their SLO come first.
type oracleLatSorter struct {
	vms   []VMState
	keys  []float64
	order []int
}

func (l *oracleLatSorter) Len() int      { return len(l.order) }
func (l *oracleLatSorter) Swap(i, j int) { l.order[i], l.order[j] = l.order[j], l.order[i] }
func (l *oracleLatSorter) Less(i, j int) bool {
	a, b := l.order[i], l.order[j]
	if l.keys[a] != l.keys[b] {
		return l.keys[a] < l.keys[b]
	}
	return l.vms[a].Name < l.vms[b].Name
}

// oracleLatencyTargetsInto is LatencyAware.TargetsInto, with its ΣMax
// loop over s.order instead of over vms.
func oracleLatencyTargetsInto(p LatencyAware, vms []VMState, need resources.Vector, s *Scratch) (SliceResult, error) {
	if s == nil {
		s = &Scratch{}
	}
	curve := p.Curve
	if curve == (perfmodel.Curve{}) {
		curve = perfmodel.WorstCaseLinear
	}
	maxS := p.MaxSlowdown
	if maxS < 1 {
		maxS = DefaultMaxSlowdown
	}

	var lsort oracleLatSorter // was s.lsort
	targets := s.grow(len(vms))
	if cap(s.order) < len(vms) {
		s.order = make([]int, len(vms))
	} else {
		s.order = s.order[:len(vms)]
	}
	if cap(s.keys) < len(vms) {
		s.keys = make([]float64, len(vms))
	} else {
		s.keys = s.keys[:len(vms)]
	}
	for i := range vms {
		s.order[i] = i
		s.keys[i] = safeFraction(&vms[i], curve, maxS)
	}
	lsort.vms, lsort.keys, lsort.order = vms, s.keys, s.order
	sort.Sort(&lsort)
	lsort.vms = nil // do not retain the caller's slice

	curTotal := currentTotal(vms)
	desired := curTotal.Sub(need)

	var total resources.Vector
	for _, i := range s.order { // the edit: was for i := range vms
		targets[i] = vms[i].Max
		total = total.Add(vms[i].Max)
	}
	// Phase 1: deflate to latency-safe allocations, most headroom first.
	for _, i := range s.order {
		if total.FitsIn(desired) {
			break
		}
		safe := vms[i].Max.Scale(s.keys[i]).Max(vms[i].Min)
		total = total.Sub(targets[i]).Add(safe)
		targets[i] = safe
	}
	// Phase 2: the SLO budget is exhausted — push on to the QoS floors in
	// the same order, so violations land on the fewest VMs possible.
	for _, i := range s.order {
		if total.FitsIn(desired) {
			break
		}
		total = total.Sub(targets[i]).Add(vms[i].Min)
		targets[i] = vms[i].Min
	}
	return finishSlice(vms, targets, need)
}

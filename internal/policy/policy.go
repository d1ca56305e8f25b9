// Package policy implements the server-level deflation policies of
// Section 5.1: proportional deflation (Equations 1-2), priority-weighted
// proportional deflation (Equations 3-4), and deterministic deflation,
// plus reinflation for all three ("run the proportional deflation
// backwards", Section 5.1.3), and a latency-aware policy. The policies
// are two algorithms: the proportional family is one water-fill with a
// per-VM weight, and Deterministic and LatencyAware are one ordered
// walk (orderedWalk) with a per-VM key — priority, or the latency-safe
// fraction, after which LatencyAware walks on to the floors.
//
// A policy is a pure function: given the deflatable VMs on a server and
// the amount of each resource that must be freed relative to the current
// allocations, it returns a new target allocation per VM. Mechanisms
// (package mechanism) then apply the targets. Policies never choose to
// preempt; if even maximal deflation cannot satisfy the need they report
// ErrInsufficient and the caller (cluster manager) rejects the request —
// that is the "failure probability" measured in Figure 20.
//
// # Hot-path API
//
// A policy decision is TargetsInto: it writes position-indexed targets
// (Targets[i] belongs to vms[i]) into buffers owned by a caller-provided
// Scratch, so a steady-state policy pass performs zero heap allocations —
// the cluster manager keeps one Scratch in its pass arena, shared by
// every server's passes, and runs millions of them without GC churn. The proportional family reads each weight
// once per pass and runs no water-fill on a dimension where no VM has a
// positive range (it would write the floors the targets start at).
package policy

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"vmdeflate/internal/perfmodel"
	"vmdeflate/internal/resources"
)

// ErrInsufficient reports that even deflating every VM to its floor
// cannot free the requested amount. TargetsInto returns the bare
// sentinel, so the hot path never formats.
var ErrInsufficient = errors.New("policy: insufficient deflatable resources")

// feasEps is the tolerance used when comparing freed amounts to needs.
const feasEps = 1e-6

// VMState is a policy's view of one deflatable VM.
type VMState struct {
	// Name identifies the VM.
	Name string
	// Max is the nominal undeflated allocation M_i.
	Max resources.Vector
	// Min is the QoS floor m_i (zero vector when the VM has no floor).
	// A host's deflatable view sets it to hypervisor.DefaultFloor for
	// every VM; the policies take any per-VM value.
	Min resources.Vector
	// Priority is pi in (0,1]; larger values deflate less. Policies that
	// ignore priority (plain proportional) do not read it.
	Priority float64
	// Current is the VM's present allocation.
	Current resources.Vector
	// Load is the VM's offered request load in cores (core-seconds of
	// CPU demand per second), as last observed by the hypervisor. Only
	// latency-aware policies read it; it is zero unless the simulation
	// meters SLOs.
	Load float64
}

// SliceResult is a policy decision in position-indexed form: Targets[i]
// is the new target allocation for vms[i] of the corresponding
// TargetsInto call. The slice is backed by the Scratch passed in and is
// valid only until that Scratch's next use.
type SliceResult struct {
	Targets []resources.Vector
	Freed   resources.Vector
}

// Scratch holds the reusable buffers a policy pass needs. The zero value
// is ready to use; after a few passes the buffers reach steady-state
// capacity and TargetsInto stops allocating entirely. A Scratch must not
// be shared between concurrent passes — the cluster manager owns one, in
// its pass arena, and runs its passes one at a time. Its buffers are
// plain slices: the targets, the water-fill's entries, and the ordered
// walk's order and keys.
type Scratch struct {
	targets []resources.Vector
	entries []wfEntry
	order   []int     // the ordered walk's VM indices, in walk order
	keys    []float64 // keys[i] is vms[i]'s walk key
}

// grow returns s.targets resized to n, reusing capacity.
func (s *Scratch) grow(n int) []resources.Vector {
	s.targets = slices.Grow(s.targets[:0], n)[:n]
	return s.targets
}

// Policy computes target allocations.
type Policy interface {
	// Name identifies the policy ("proportional", "priority", "deterministic").
	Name() string
	// TargetsInto returns new allocations for vms that free need (per
	// resource, relative to current allocations), written into buffers
	// owned by s (which may be nil for a one-shot call). Negative need
	// components request reinflation. If the need cannot be fully met the
	// result holds best-effort targets alongside ErrInsufficient.
	TargetsInto(vms []VMState, need resources.Vector, s *Scratch) (SliceResult, error)
}

// currentTotal sums Current across vms, in input order: Vector.Add's
// additions, spelled out per component without the by-value copies.
func currentTotal(vms []VMState) (cur resources.Vector) {
	for i := range vms {
		for k, x := range &vms[i].Current {
			cur[k] += x
		}
	}
	return cur
}

// finishSlice computes Freed (in input order, so the float summation is
// deterministic) and checks feasibility, returning the bare
// ErrInsufficient sentinel where the need cannot be met.
func finishSlice(vms []VMState, targets []resources.Vector, need resources.Vector) (SliceResult, error) {
	var freed resources.Vector
	for i := range vms {
		// freed.Add(Current).Sub(target), per component.
		c, t := &vms[i].Current, &targets[i]
		for k := range freed {
			freed[k] = freed[k] + c[k] - t[k]
		}
	}
	res := SliceResult{Targets: targets, Freed: freed}
	for _, k := range resources.Kinds {
		if freed.Get(k)+feasEps < need.Get(k) {
			return res, ErrInsufficient
		}
	}
	return res, nil
}

// Proportional implements Equations 1 and 2: each VM is deflated in
// proportion to its deflatable range (M_i - m_i), independently per
// resource. With all m_i = 0 this reduces to Equation 1.
type Proportional struct{}

// Name implements Policy.
func (Proportional) Name() string { return "proportional" }

// TargetsInto implements Policy.
func (Proportional) TargetsInto(vms []VMState, need resources.Vector, s *Scratch) (SliceResult, error) {
	return weightedTargetsInto(vms, need, unitWeight, s)
}

// Priority implements Equations 3 and 4: the deflatable range of VM i is
// weighted by its priority pi, so low-priority VMs absorb more of the
// reclamation. With m_i = pi*M_i this is exactly Equation 4.
type Priority struct{}

// Name implements Policy.
func (Priority) Name() string { return "priority" }

// TargetsInto implements Policy.
func (Priority) TargetsInto(vms []VMState, need resources.Vector, s *Scratch) (SliceResult, error) {
	return weightedTargetsInto(vms, need, priorityWeight, s)
}

// unitWeight and priorityWeight are package-level functions (not
// closures) so passing them down the hot path allocates nothing.
func unitWeight(*VMState) float64 { return 1 }

func priorityWeight(vm *VMState) float64 {
	p := vm.Priority
	if p <= 0 {
		p = 1e-3 // avoid a zero weight freezing the formula
	}
	return p
}

// weightedTargetsInto computes, per resource k, allocations of the form
//
//	new_i = clamp(m_i + alpha * w_i * (M_i - m_i), m_i, M_i)
//
// with alpha chosen so that the total allocation drops by need[k]
// relative to the current total. VMs that clamp at M_i are frozen and
// alpha is recomputed over the rest (water-filling); this degenerates to
// the paper's closed-form alpha when no clamp binds, and handles
// reinflation (negative need) with the same code path.
// A dimension on which no VM has a positive range is skipped: its
// water-fill would write every VM's floor, where the targets start.
func weightedTargetsInto(vms []VMState, need resources.Vector, weight func(*VMState) float64, s *Scratch) (SliceResult, error) {
	if s == nil {
		s = &Scratch{}
	}
	targets := s.grow(len(vms))
	entries := s.entries[:0]
	var ranged [resources.NumKinds]bool // some VM has a positive range on k
	for i := range vms {
		vm := &vms[i]
		targets[i] = vm.Min // start from floors, fill below
		entries = append(entries, wfEntry{w: weight(vm)})
		for k := range ranged {
			if vm.Max[k]-vm.Min[k] > 0 {
				ranged[k] = true
			}
		}
	}
	s.entries = entries
	curTotal := currentTotal(vms)

	for _, k := range resources.Kinds {
		if ranged[k] {
			// Desired total allocation after this decision.
			solveDimension(vms, k, curTotal[k]-need[k], targets, entries)
		}
	}
	return finishSlice(vms, targets, need)
}

// wfEntry is vms[i]'s water-filling state, entries[i]: its weight, set
// once per pass, and its state on the dimension being solved.
type wfEntry struct {
	w        float64
	min, max float64 // the VM's floor and size on the dimension
	rangeK   float64
	clamped  bool
}

// solveDimension performs the per-resource water-filling described on
// weightedTargetsInto, writing new_i into targets[i][k]. entries[i]
// holds vms[i]'s weight; the rest of each entry is set here.
func solveDimension(vms []VMState, k resources.Kind, desired float64, targets []resources.Vector, entries []wfEntry) {
	floorSum := 0.0
	for i := range entries {
		vm, e := &vms[i], &entries[i]
		r := vm.Max[k] - vm.Min[k]
		if r < 0 {
			r = 0
		}
		e.min, e.max, e.rangeK, e.clamped = vm.Min[k], vm.Max[k], r, false
		floorSum += vm.Min[k]
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
				clampedSum += e.max
				continue
			}
			wSum += e.w * e.rangeK
			freeFloor += e.min
		}
		if wSum <= 0 {
			// No deflatable range left: everyone at floor or clamped.
			for i, e := range entries {
				v := e.min
				if e.clamped {
					v = e.max
				}
				targets[i][k] = v
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
			v := e.min + alpha*e.w*e.rangeK
			if v >= e.max {
				e.clamped = true
				newClamp = true
			}
		}
		if !newClamp {
			for i, e := range entries {
				v := e.max
				if !e.clamped {
					v = e.min + alpha*e.w*e.rangeK
				}
				targets[i][k] = v
			}
			return
		}
	}
}

// Deterministic implements Section 5.1.3: deflation is binary — a VM is
// either at its full allocation M_i or at its pre-specified deflated
// level pi*M_i. VMs are deflated lowest-priority first until the need is
// met, and conversely the highest-priority deflated VM is reinflated
// first when resources free up. (The paper's prose says "decreasing
// order of pi"; we deflate in increasing pi order, which is the ordering
// consistent with the paper's reinflation rule — "the highest priority
// VMs are reinflated first" — and with Figure 21's observation that
// deterministic deflation penalises low-priority VMs most.) It is the
// ordered walk keyed by priority.
type Deterministic struct{}

// Name implements Policy.
func (Deterministic) Name() string { return "deterministic" }

// TargetsInto implements Policy.
func (Deterministic) TargetsInto(vms []VMState, need resources.Vector, s *Scratch) (SliceResult, error) {
	if s == nil {
		s = &Scratch{}
	}
	targets, _, _ := s.orderedWalk(vms, need, priorityKey)
	return finishSlice(vms, targets, need)
}

// priorityKey is Deterministic's walk key, a package-level function so
// passing it down the hot path allocates nothing.
func priorityKey(vm *VMState) float64 { return vm.Priority }

// orderedWalk is the greedy walk of Deterministic and LatencyAware. It
// sorts s.order by (key, name) ascending, a strict total order because
// names are unique, with key(&vms[i]) in s.keys[i]. Then it recomputes
// the deflation set from scratch: every target starts at Max and, in
// walk order, each VM is lowered to max(key*Max, Min) until the total
// allocation fits the desired one (the current total less need) in
// every dimension. VMs not needed stay (or return) at full size, so the
// one pass implements both deflation and reinflation. It returns the
// targets and the walk's total and desired allocations, for a caller
// that walks on.
func (s *Scratch) orderedWalk(vms []VMState, need resources.Vector, key func(*VMState) float64) (targets []resources.Vector, total, desired resources.Vector) {
	n := len(vms)
	targets = s.grow(n)
	order := slices.Grow(s.order[:0], n)[:n]
	keys := slices.Grow(s.keys[:0], n)[:n]
	s.order, s.keys = order, keys
	for i := range vms {
		order[i], keys[i] = i, key(&vms[i])
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(keys[a], keys[b]), strings.Compare(vms[a].Name, vms[b].Name))
	})

	desired = currentTotal(vms).Sub(need)
	for _, i := range order {
		targets[i] = vms[i].Max
		total = total.Add(vms[i].Max)
	}
	for _, i := range order {
		if total.FitsIn(desired) {
			break
		}
		lowered := vms[i].Max.Scale(keys[i]).Max(vms[i].Min)
		total = total.Sub(vms[i].Max).Add(lowered)
		targets[i] = lowered
	}
	return targets, total, desired
}

// DefaultMaxSlowdown is the SLO threshold a zero-configured LatencyAware
// policy protects: request sojourn times may stretch at most 3x relative
// to the undeflated VM.
const DefaultMaxSlowdown = 3.0

// LatencyAware deflates the VMs with the most latency headroom first:
// it is Deterministic's walk with a load-derived key, then a walk to the
// floors. For each VM it combines the closed-form processor-sharing
// model with the application's deflation-response curve to answer "how
// far can this VM deflate before its offered load pushes request
// slowdown past the SLO threshold?" (safeFraction), and the ordered walk
// lowers the VMs whose answer is deepest to their latency-safe
// allocations first, so the SLO holds for all residents. Only if the
// need still cannot be met does a second walk, in the same order, push
// VMs on down to their QoS floors, accepting SLO violations on as few
// VMs as possible. Like Deterministic it recomputes the deflation set
// from scratch on every pass, so reinflation falls out of the same code
// path; unlike the proportional family it is load-sensitive — an idle VM
// absorbs reclamation before a loaded one regardless of priority.
type LatencyAware struct {
	// Curve maps deflation to retained performance. The zero value means
	// the conservative worst-case linear assumption of Section 5.
	Curve perfmodel.Curve
	// MaxSlowdown is the SLO threshold: the largest tolerable sojourn
	// ratio versus the undeflated VM. Values below 1 (including zero)
	// select DefaultMaxSlowdown; clustersim rejects NaN and ±Inf.
	MaxSlowdown float64
}

// Name implements Policy.
func (LatencyAware) Name() string { return "latency" }

// safeFraction returns the smallest fraction of its nominal size the VM
// can shrink to while keeping request slowdown within maxSlowdown: the
// PS model gives the minimal effective capacity the load needs, and the
// curve inversion converts that into an allocation (effective capacity
// and allocation differ whenever the curve has slack).
func safeFraction(vm *VMState, curve perfmodel.Curve, maxSlowdown float64) float64 {
	fullCap := vm.Max.Get(resources.CPU)
	if fullCap <= 0 {
		return 0
	}
	needCap := perfmodel.PSCapacityForSlowdown(vm.Load, fullCap, maxSlowdown)
	return 1 - curve.DeflationFor(needCap/fullCap)
}

// TargetsInto implements Policy.
func (p LatencyAware) TargetsInto(vms []VMState, need resources.Vector, s *Scratch) (SliceResult, error) {
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
	targets, total, desired := s.orderedWalk(vms, need, func(vm *VMState) float64 {
		return safeFraction(vm, curve, maxS)
	})
	// The SLO budget is exhausted: push on to the QoS floors in the same
	// order, so violations land on the fewest VMs possible.
	for _, i := range s.order {
		if total.FitsIn(desired) {
			break
		}
		total = total.Sub(targets[i]).Add(vms[i].Min)
		targets[i] = vms[i].Min
	}
	return finishSlice(vms, targets, need)
}

// ByName returns the policy with the given name.
func ByName(name string) (Policy, error) {
	switch name {
	case "proportional":
		return Proportional{}, nil
	case "priority":
		return Priority{}, nil
	case "deterministic":
		return Deterministic{}, nil
	case "latency":
		return LatencyAware{}, nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q", name)
}

// PriorityFromP95 derives a VM's deflation priority from the 95th
// percentile of its CPU utilisation, quantised into nlevels levels in
// (0, 1], as done by the paper's cluster simulation (Section 7.1.2):
// high-utilisation VMs get high priority and are deflated less.
func PriorityFromP95(p95 float64, nlevels int) float64 {
	if nlevels < 1 {
		nlevels = 1
	}
	if p95 < 0 {
		p95 = 0
	}
	if p95 > 100 {
		p95 = 100
	}
	level := int(p95 / (100.0 / float64(nlevels)))
	if level >= nlevels {
		level = nlevels - 1
	}
	return float64(level+1) / float64(nlevels)
}

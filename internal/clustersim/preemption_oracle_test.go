package clustersim

import (
	"math"
	"slices"
	"sort"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/trace"
)

// This file keeps the preemption baseline's own event loop as it stood
// before the baseline became a mode of the engine's one loop, verbatim
// but for its VM type's name and for resolving each event's record
// (off the trace) and shock (off the schedule) by its seq, now that
// events carry no pointers: the oracle TestPreemptionMatchesParentLoop
// and FuzzPreemptionMatchesParentLoop hold the shared loop to, Result
// for Result. It places through the linear tightestFit, which is also
// fleet.fit's oracle.

// tightestFit returns the index of the fitting server whose leftover
// dominant share would be smallest, or -1 if none fits: the linear scan
// fleet.fit is held to.
func tightestFit(free []resources.Vector, size, serverCap resources.Vector) int {
	best, bestLeft := -1, math.Inf(1)
	for i := range free {
		if !size.FitsIn(free[i]) {
			continue
		}
		left := free[i].Sub(size).DominantShare(serverCap)
		if left < bestLeft {
			best, bestLeft = i, left
			if left == 0 {
				break // nothing is strictly tighter than a perfect fit
			}
		}
	}
	return best
}

// parentVM is one VM in the oracle loop.
type parentVM struct {
	rec    *trace.VMRecord
	size   resources.Vector
	lowPri bool
	prio   float64
	server int
}

// runParentPreemption runs cfg on the oracle loop. It reads utilisation
// off each record's series, so it takes eager traces only.
func runParentPreemption(cfg Config) (*Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.runPreemption()
}

// runPreemption simulates today's transient servers: VMs always get
// their full allocation; when an on-demand VM arrives and no server has
// room, low-priority VMs are preempted — killed — lowest priority first
// until it fits. Low-priority arrivals that do not fit are rejected. The
// Figure 20 baseline metric is the probability that an admitted
// low-priority VM is preempted before its natural departure.
//
// Capacity shocks are where the baseline diverges hardest from
// deflation: a revoked server kills every resident outright (there is
// no migration on today's transient servers). The same shock
// schedule drives both modes, which is what makes the
// deflation-saves-the-shock-victims comparison an apples-to-apples one.
//
// The baseline drives the same lazily scheduled event queue as the
// deflation engine: departures enter the queue only for admitted VMs,
// and a preempted or shock-killed VM's stale departure event is ignored
// because the VM is no longer in the running set.
//
// Residents are also kept per server, in admission order, so the
// eviction search and the kill lists read only the server they concern
// and every float fold over them is ordered by simulation state.
func (e *Engine) runPreemption() (*Result, error) {
	capacity := DefaultServerCapacity()
	if err := e.src.open(); err != nil {
		return nil, err
	}
	free := make([]resources.Vector, e.nServers)
	revoked := make([]bool, e.nServers)
	for i := range free {
		free[i] = capacity
	}
	running := map[string]*parentVM{}
	resident := make([][]*parentVM, e.nServers)
	res := &Result{Servers: e.nServers, Revenue: map[string]float64{}}
	var demandTotal, lostTotal float64

	place := func(vm *parentVM) bool {
		// Conventional bin-packing: tightest fit, as used by
		// non-deflatable cluster managers (Section 5.2).
		best := tightestFit(free, vm.size, capacity)
		if best < 0 {
			return false
		}
		vm.server = best
		free[best] = free[best].Sub(vm.size)
		return true
	}

	// leave takes vm off its server: capacity returns, and it drops out
	// of the running set and (order-preserving) the resident list.
	leave := func(vm *parentVM) {
		free[vm.server] = free[vm.server].Add(vm.size)
		delete(running, vm.rec.ID)
		r := resident[vm.server]
		i := slices.Index(r, vm)
		resident[vm.server] = slices.Delete(r, i, i+1)
	}

	// victimsOn lists server i's residents — only the low-priority ones
	// when lowPriOnly — lowest (priority, ID) first: the deterministic
	// kill order of evictions and shocks. The list is a copy, so callers
	// may kill as they walk it.
	victimsOn := func(i int, lowPriOnly bool) []*parentVM {
		var v []*parentVM
		for _, vm := range resident[i] {
			if vm.lowPri || !lowPriOnly {
				v = append(v, vm)
			}
		}
		sort.Slice(v, func(a, b int) bool {
			if v[a].prio != v[b].prio {
				return v[a].prio < v[b].prio
			}
			return v[a].rec.ID < v[b].rec.ID
		})
		return v
	}

	evict := func(need resources.Vector, server int, now float64) bool {
		for _, v := range victimsOn(server, true) {
			if need.FitsIn(free[server]) {
				break
			}
			leave(v)
			res.Preemptions++
			lostTotal += remainingDemand(v.rec, nil, now)
		}
		return need.FitsIn(free[server])
	}

	// shockKill removes one VM the provider's capacity shock destroyed:
	// unlike evict it is not an admission preemption, so it counts in
	// ShockKills, and only low-priority demand feeds the loss ratio
	// (the deflation engine charges its shock kills the same remaining
	// demand, so the cross-engine loss comparison is apples to apples).
	shockKill := func(vm *parentVM, now float64) {
		leave(vm)
		res.ShockKills++
		if vm.lowPri {
			lostTotal += remainingDemand(vm.rec, nil, now)
		}
	}

	// bestEvictionServer picks the server where free space plus
	// evictable low-priority allocation best covers `need`.
	bestEvictionServer := func(need resources.Vector) int {
		best, bestFit := -1, -1.0
		for i := range free {
			if revoked[i] {
				continue
			}
			avail := free[i]
			for _, vm := range resident[i] {
				if vm.lowPri {
					avail = avail.Add(vm.size)
				}
			}
			if !need.FitsIn(avail) {
				continue
			}
			fit := resources.CosineFitness(need, avail)
			if fit > bestFit {
				best, bestFit = i, fit
			}
		}
		return best
	}

	queue := e.openQueue() // and the horizon, which pushShocks defaults a generated schedule to
	e.pushShocks(queue)
	for !queue.empty() {
		ev := queue.pop()
		var evVM *trace.VMRecord // the arrival's or departure's record
		if ev.kind == evArrival || ev.kind == evDeparture {
			evVM = e.cfg.Trace.VMs[ev.seq]
		}
		switch ev.kind {
		case evDeparture:
			vm, ok := running[evVM.ID]
			if !ok || vm.rec != evVM {
				continue // already preempted or shock-killed, its ID maybe reused
			}
			leave(vm)
			continue
		case evRevoke:
			// Today's transient server disappearing: every resident
			// dies. Lowest (priority, ID) first only fixes the float
			// fold order; everyone goes.
			i := e.shocks[ev.seq].Server
			if revoked[i] {
				continue
			}
			revoked[i] = true
			res.Revocations++
			for _, vm := range victimsOn(i, false) {
				shockKill(vm, ev.at)
			}
			free[i] = resources.Vector{} // nothing fits a revoked server
			continue
		case evRestore:
			i := e.shocks[ev.seq].Server
			if !revoked[i] {
				continue
			}
			revoked[i] = false
			res.Restorations++
			free[i] = capacity // the revocation emptied it
			continue
		}
		if _, ok := running[evVM.ID]; ok {
			return nil, errLiveTwice(evVM.ID, ev.seq)
		}
		res.Arrivals++
		p95, _ := e.src.util(ev.seq)
		vm := &parentVM{
			rec:    evVM,
			size:   vmSize(evVM),
			lowPri: evVM.Class == trace.Interactive,
			prio:   policy.PriorityFromP95(p95, priorityLevels),
		}
		if vm.lowPri {
			// Total low-priority demand, for the throughput-loss ratio.
			demandTotal += remainingDemand(evVM, nil, evVM.Start)
		}
		admit := func() {
			running[evVM.ID] = vm
			resident[vm.server] = append(resident[vm.server], vm)
			queue.push(simEvent{at: evVM.End, kind: evDeparture, name: evVM.ID, seq: ev.seq})
		}
		if place(vm) {
			res.Admitted++
			if vm.lowPri {
				res.DeflatableAdmitted++
			}
			admit()
			continue
		}
		if !vm.lowPri {
			// On-demand pressure: reclaim by preemption.
			res.ReclamationAttempts++
			if s := bestEvictionServer(vm.size); s >= 0 && evict(vm.size, s, ev.at) && place(vm) {
				res.Admitted++
				admit()
				continue
			}
			res.ReclamationFailures++
		}
		res.Rejected++
	}

	// Figure 20 baseline metric: preemption probability for admitted
	// low-priority VMs.
	if res.DeflatableAdmitted > 0 {
		res.FailureProbability = float64(res.Preemptions) / float64(res.DeflatableAdmitted)
	}
	if demandTotal > 0 {
		res.ThroughputLoss = lostTotal / demandTotal
	}
	return res, nil
}

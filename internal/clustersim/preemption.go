package clustersim

import (
	"slices"
	"sort"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/trace"
)

// pVM is one VM in the preemption baseline: its record, read by value
// through the row source, and its trace row, which tells a departure of
// this VM from a stale one of an earlier VM with the same ID.
type pVM struct {
	rec  trace.VMRecord
	size resources.Vector
	prio float64
	// cur reads a low-priority VM's utilisation on streamed runs (nil
	// otherwise), for the demand a kill destroys; leave releases it.
	cur    *trace.UtilCursor
	row    int32
	server int32
	lowPri bool
}

// preemption is the baseline reclaimer, today's transient servers: VMs
// always get their full allocation; when an on-demand VM arrives and no
// server has room, low-priority VMs are preempted — killed — lowest
// priority first until it fits. Low-priority arrivals that do not fit
// are rejected. The Figure 20 baseline metric is the probability that an
// admitted low-priority VM is preempted before its natural departure.
//
// Capacity shocks are where the baseline diverges hardest from
// deflation: a revoked server kills every resident outright (there is
// no migration on today's transient servers). The engine's one event
// loop drives both modes through the same queue, batching and shock
// bookkeeping, which is what makes the deflation-saves-the-shock-victims
// comparison an apples-to-apples one.
//
// Departures enter the queue only for admitted VMs, and a preempted or
// shock-killed VM's stale departure event is ignored because the VM is
// no longer in the running set. Residents are also kept per server, in
// admission order, so the eviction search and the kill lists read only
// the server they concern and every float fold over them is ordered by
// simulation state.
type preemption struct {
	e        *Engine
	fleet    *fleet // free capacity, in the tightest-fit scan's order
	running  map[string]*pVM
	resident [][]*pVM
	spare    []*pVM // VMs gone from the run, reused by later arrivals
}

// setupPreemption builds the baseline's run state: every server empty at
// DefaultServerCapacity, and the queue seeded with the trace and the shock
// schedule.
func (e *Engine) setupPreemption() error {
	if err := e.src.open(); err != nil {
		return err
	}
	e.rec = &preemption{
		e:        e,
		fleet:    newFleet(e.nServers, DefaultServerCapacity()),
		running:  map[string]*pVM{},
		resident: make([][]*pVM, e.nServers),
	}
	e.revoked = make([]bool, e.nServers)
	e.res = &Result{Servers: e.nServers, Revenue: map[string]float64{}}
	e.queue = e.openQueue()
	e.pushShocks(e.queue)
	return nil
}

// place puts vm on the tightest-fitting server — conventional
// bin-packing, as used by non-deflatable cluster managers (Section
// 5.2) — and reports whether any server fits it.
func (p *preemption) place(vm *pVM) bool {
	best := p.fleet.fit(vm.size)
	if best < 0 {
		return false
	}
	vm.server = int32(best)
	p.fleet.set(best, p.fleet.free[best].Sub(vm.size))
	return true
}

// leave takes vm off its server: capacity returns, and it drops out of
// the running set and (order-preserving) the resident list.
func (p *preemption) leave(vm *pVM) {
	p.fleet.set(int(vm.server), p.fleet.free[vm.server].Add(vm.size))
	delete(p.running, vm.rec.ID)
	r := p.resident[vm.server]
	i := slices.Index(r, vm)
	p.resident[vm.server] = slices.Delete(r, i, i+1)
	p.recycle(vm)
}

// recycle returns a VM that is no longer in the run, and its cursor, for
// reuse. Nothing reads it again: it is out of the running set and its
// resident list, and a kill list that holds it has walked past it.
func (p *preemption) recycle(vm *pVM) {
	if vm.cur != nil {
		p.e.src.release(vm.cur)
	}
	*vm = pVM{}
	p.spare = append(p.spare, vm)
}

// victimsOn lists server i's residents — only the low-priority ones when
// lowPriOnly — lowest (priority, ID) first: the deterministic kill order
// of evictions and shocks. The list is a copy, so callers may kill as
// they walk it.
func (p *preemption) victimsOn(i int, lowPriOnly bool) []*pVM {
	var v []*pVM
	for _, vm := range p.resident[i] {
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

// evict preempts server's low-priority residents, lowest first, until
// need fits, and reports whether it does.
func (p *preemption) evict(need resources.Vector, server int, now float64) bool {
	free := p.fleet.free
	for _, v := range p.victimsOn(server, true) {
		if need.FitsIn(free[server]) {
			break
		}
		p.e.lostTotal += remainingDemand(&v.rec, v.cur, now)
		p.e.res.Preemptions++
		p.leave(v)
	}
	return need.FitsIn(free[server])
}

// shockKill removes one VM the provider's capacity shock destroyed:
// unlike evict it is not an admission preemption, so it counts in
// ShockKills, and only low-priority demand feeds the loss ratio (the
// deflation engine charges its shock kills the same remaining demand, so
// the cross-mode loss comparison is apples to apples).
func (p *preemption) shockKill(vm *pVM, now float64) {
	if vm.lowPri {
		p.e.lostTotal += remainingDemand(&vm.rec, vm.cur, now)
	}
	p.e.res.ShockKills++
	p.leave(vm)
}

// bestEvictionServer picks the server where free space plus evictable
// low-priority allocation best covers need.
func (p *preemption) bestEvictionServer(need resources.Vector) int {
	best, bestFit := -1, -1.0
	for i, free := range p.fleet.free {
		if p.e.revoked[i] {
			continue
		}
		avail := free
		for _, vm := range p.resident[i] {
			if vm.lowPri {
				avail = avail.Add(vm.size)
			}
		}
		if !need.FitsIn(avail) {
			continue
		}
		if fit := resources.CosineFitness(need, avail); fit > bestFit {
			best, bestFit = i, fit
		}
	}
	return best
}

// handleArrivals admits one same-timestamp batch in trace order: each VM
// on the tightest fit, an on-demand VM that fits nowhere by preempting
// low-priority residents of the best eviction server.
func (p *preemption) handleArrivals(evs []simEvent) error {
	e := p.e
	res := e.res
	for _, ev := range evs {
		rec := e.src.vm(ev.seq, e.src.id(ev.seq))
		if _, ok := p.running[rec.ID]; ok {
			return errLiveTwice(rec.ID, ev.seq)
		}
		res.Arrivals++
		p95, _ := e.src.util(ev.seq)
		var vm *pVM
		if n := len(p.spare); n > 0 {
			vm, p.spare = p.spare[n-1], p.spare[:n-1]
		} else {
			vm = new(pVM)
		}
		*vm = pVM{
			rec:    rec,
			size:   vmSize(&rec),
			row:    int32(ev.seq),
			lowPri: rec.Class == trace.Interactive,
			prio:   policy.PriorityFromP95(p95, priorityLevels),
		}
		if vm.lowPri {
			// Total low-priority demand, for the throughput-loss ratio.
			vm.cur = e.src.cursor(ev.seq)
			e.demandTotal += remainingDemand(&vm.rec, vm.cur, rec.Start)
		}
		admitted := p.place(vm)
		if admitted && vm.lowPri {
			res.DeflatableAdmitted++
		} else if !admitted && !vm.lowPri {
			// On-demand pressure: reclaim by preemption.
			res.ReclamationAttempts++
			s := p.bestEvictionServer(vm.size)
			if admitted = s >= 0 && p.evict(vm.size, s, ev.at) && p.place(vm); !admitted {
				res.ReclamationFailures++
			}
		}
		if !admitted {
			res.Rejected++
			p.recycle(vm)
			continue
		}
		res.Admitted++
		p.running[rec.ID] = vm
		p.resident[vm.server] = append(p.resident[vm.server], vm)
		e.queue.push(simEvent{at: rec.End, kind: evDeparture, name: rec.ID, seq: ev.seq})
	}
	return nil
}

// handleDepartures takes each departing VM off its server, unless it
// was preempted or shock-killed first: the VM running under its name is
// then another row's, or none.
func (p *preemption) handleDepartures(evs []simEvent) error {
	for _, ev := range evs {
		if vm, ok := p.running[ev.name]; ok && vm.row == int32(ev.seq) {
			p.leave(vm)
		}
	}
	return nil
}

// handleRevocations is today's transient servers disappearing: every
// resident dies. Lowest (priority, ID) first only fixes the float fold
// order; everyone goes.
func (p *preemption) handleRevocations(servers []int, at float64) error {
	for _, i := range servers {
		for _, vm := range p.victimsOn(i, false) {
			p.shockKill(vm, at)
		}
		p.fleet.set(i, resources.Vector{}) // nothing fits a revoked server
	}
	return nil
}

// handleRestore returns a server at its full capacity: the revocation
// emptied it.
func (p *preemption) handleRestore(i int, _ float64) error {
	p.fleet.set(i, p.fleet.capacity)
	return nil
}

// foldResult folds the Figure 20 baseline metric, the preemption
// probability of admitted low-priority VMs, and the throughput loss.
func (p *preemption) foldResult() *Result {
	e := p.e
	if e.res.DeflatableAdmitted > 0 {
		e.res.FailureProbability = float64(e.res.Preemptions) / float64(e.res.DeflatableAdmitted)
	}
	if e.demandTotal > 0 {
		e.res.ThroughputLoss = e.lostTotal / e.demandTotal
	}
	return e.res
}

package main

import (
	"container/heap"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"

	"vmdeflate/internal/cluster"
	"vmdeflate/internal/clustersim"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/trace"
)

// The replay driver issues, against a bare cluster.Manager, the same
// sequence of public calls the engine issues during a run — without the
// engine's event queue, sampling and metering around them — and times
// each one. When its admitted / rejected / reclaim / evacuated / killed
// counts equal the engine's Result, the calls were the same calls, and
// cluster.* can be read as the engine's own cost in that layer.

// heapSampleEvery is how many manager calls pass between forced
// collections that measure the heap per live VM.
const heapSampleEvery = 4096

type replayStats struct {
	provisionS float64

	placeS, placeSurplusS, placeReclaimS float64
	placeCalls, placeVMs                 int
	placeUS                              []float64 // one per PlaceVMs call
	placeAllocs                          uint64
	admitted, rejected, reclaimAttempts  int

	removeS                float64
	removeCalls, removeVMs int

	revokeS, restoreS, resizeS float64
	revokeCalls                int
	evacuated, killed          int

	liveVMsPeak    int
	bytesPerLiveVM float64
}

// sumS is the time spent inside the manager: the part of the engine's
// run that is not the engine's own.
func (s *replayStats) sumS() float64 {
	return s.placeS + s.removeS + s.revokeS + s.restoreS + s.resizeS
}

// departure is a scheduled removal; the heap orders by (time, index)
// like the engine's queue.
type departure struct {
	at  float64
	idx int
}

type departures []departure

func (d departures) Len() int      { return len(d) }
func (d departures) Swap(i, j int) { d[i], d[j] = d[j], d[i] }
func (d departures) Less(i, j int) bool {
	if d[i].at != d[j].at {
		return d[i].at < d[j].at
	}
	return d[i].idx < d[j].idx
}
func (d *departures) Push(x any) { *d = append(*d, x.(departure)) }
func (d *departures) Pop() any {
	old := *d
	v := old[len(old)-1]
	*d = old[:len(old)-1]
	return v
}

// shockRank orders same-instant shocks as the engine's event kinds do:
// restores, then revocations, then resizes (all after departures and
// before arrivals).
func shockRank(k trace.ShockKind) int {
	switch k {
	case trace.ShockRestore:
		return 0
	case trace.ShockRevoke:
		return 1
	default:
		return 2
	}
}

// replayInputs is the call sequence's raw material, built before any
// timing starts.
type replayInputs struct {
	vms      []*trace.VMRecord
	dcs      []hypervisor.DomainConfig // as the engine's arrival handler builds them
	arrivals []int                     // VM indexes in (start, index) order
	index    map[string]int            // VM name -> index: evacuations report names
	shocks   []trace.CapacityShock     // in event order
	servers  int
	capacity resources.Vector
	mgrCfg   cluster.Config
}

// newReplayInputs derives the sequence from the prepared workload. A
// streamed workload is materialised through the eager generator, which
// yields the same VMs bit for bit. The shock schedule is generated here,
// for the engine's server count and horizon, under its own span.
func newReplayInputs(p *prepared, servers int, tr *tracer) (*replayInputs, error) {
	eager := p.tr
	if eager == nil {
		var err error
		if eager, err = trace.GenerateNamed(p.w.scenario, p.w.vms, horizon, p.seed); err != nil {
			return nil, err
		}
	}
	in := &replayInputs{
		vms:      eager.VMs,
		dcs:      make([]hypervisor.DomainConfig, len(eager.VMs)),
		arrivals: make([]int, len(eager.VMs)),
		index:    make(map[string]int, len(eager.VMs)),
		servers:  servers,
		capacity: clustersim.DefaultServerCapacity(),
		mgrCfg:   cluster.Config{Policy: p.w.policy},
	}
	var maxEnd float64
	for i, vm := range eager.VMs {
		in.arrivals[i] = i
		in.index[vm.ID] = i
		if vm.End > maxEnd {
			maxEnd = vm.End
		}
		dc := hypervisor.DomainConfig{
			Name:       vm.ID,
			Size:       resources.CPUMem(float64(vm.Cores), vm.MemoryMB),
			Deflatable: vm.Class == trace.Interactive,
		}
		if dc.Deflatable {
			dc.Priority = policy.PriorityFromP95(vm.P95(), 4)
			if p.w.slo {
				dc.Load = vm.UtilAt(vm.Start) / 100 * float64(vm.Cores)
			}
		}
		in.dcs[i] = dc
	}
	sort.SliceStable(in.arrivals, func(a, b int) bool {
		return eager.VMs[in.arrivals[a]].Start < eager.VMs[in.arrivals[b]].Start
	})
	if sc := p.w.shockConfig(p.seed); sc != nil {
		sc.Duration = maxEnd
		sp := tr.begin(spTraceShocks)
		all := trace.GenerateShocks(*sc, servers)
		tr.end(sp)
		for _, sh := range all {
			if sh.Server >= 0 && sh.Server < servers {
				in.shocks = append(in.shocks, sh)
			}
		}
		sort.SliceStable(in.shocks, func(a, b int) bool {
			x, y := in.shocks[a], in.shocks[b]
			if x.At != y.At {
				return x.At < y.At
			}
			return shockRank(x.Kind) < shockRank(y.Kind)
		})
	}
	return in, nil
}

// replay provisions a manager like the engine's and drives the call
// sequence through it, one span per call.
func replay(in *replayInputs, tr *tracer) (*replayStats, error) {
	st := &replayStats{placeUS: make([]float64, 0, len(in.vms))}
	rt := newRTReader()
	// Read around every PlaceVMs call, so one sample, not rt's seven.
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	runtime.GC()
	heapBase := rt.read().heapObjects

	sp := tr.begin(spProvision)
	mgr := cluster.NewManager(in.mgrCfg)
	defer mgr.Close()
	names := make([]string, in.servers)
	for i := range names {
		names[i] = fmt.Sprintf("node-%03d", i)
		if _, err := mgr.AddServerSpec(cluster.ServerSpec{Name: names[i], Capacity: in.capacity}); err != nil {
			return nil, err
		}
	}
	tr.end(sp)
	st.provisionS = tr.seconds(sp)

	var (
		running   = make([]bool, len(in.vms))
		revoked   = make([]bool, in.servers)
		deps      departures
		batch     []string
		dcs       []hypervisor.DomainConfig
		idxs      []int
		pls       []cluster.Placement
		live      int
		calls     int
		heapAtMax uint64
		liveAtMax int
		nextA     int
		nextS     int
	)
	// called runs after every manager call: the heap-per-live-VM sample
	// sits between calls, never inside a span.
	called := func() {
		if live > st.liveVMsPeak {
			st.liveVMsPeak = live
		}
		calls++
		if calls%heapSampleEvery == 0 && live > liveAtMax {
			runtime.GC()
			liveAtMax, heapAtMax = live, rt.read().heapObjects
		}
	}
	evacuate := func(out cluster.Evacuation) {
		for i := range out.VMs {
			idx, ok := in.index[out.VMs[i].Name]
			if !ok || !running[idx] {
				continue
			}
			if out.Placements[i].Err != nil {
				st.killed++
				running[idx] = false
				live--
			} else {
				st.evacuated++
			}
		}
	}

	for {
		// The next instant is the earliest pending departure, shock or
		// arrival.
		at, pending := 0.0, false
		consider := func(t float64) {
			if !pending || t < at {
				at, pending = t, true
			}
		}
		if len(deps) > 0 {
			consider(deps[0].at)
		}
		if nextS < len(in.shocks) {
			consider(in.shocks[nextS].At)
		}
		if nextA < len(in.arrivals) {
			consider(in.vms[in.arrivals[nextA]].Start)
		}
		if !pending {
			break
		}

		// Departures: one batched removal per instant. A VM a shock
		// killed is no longer running and its departure is stale.
		batch = batch[:0]
		for len(deps) > 0 && deps[0].at == at {
			d := heap.Pop(&deps).(departure)
			if running[d.idx] {
				running[d.idx] = false
				live--
				batch = append(batch, in.vms[d.idx].ID)
			}
		}
		if len(batch) > 0 {
			sp := tr.begin(spRemove)
			err := mgr.RemoveVMs(batch...)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			st.removeS += tr.seconds(sp)
			st.removeCalls++
			st.removeVMs += len(batch)
			called()
		}

		// Shocks: restores one by one, same-instant revocations as one
		// multi-server call, resizes one by one.
		for nextS < len(in.shocks) && in.shocks[nextS].At == at && in.shocks[nextS].Kind == trace.ShockRestore {
			i := in.shocks[nextS].Server
			nextS++
			if !revoked[i] {
				continue
			}
			revoked[i] = false
			sp := tr.begin(spRestore)
			err := mgr.RestoreServer(names[i])
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			st.restoreS += tr.seconds(sp)
			called()
		}
		batch = batch[:0]
		for nextS < len(in.shocks) && in.shocks[nextS].At == at && in.shocks[nextS].Kind == trace.ShockRevoke {
			i := in.shocks[nextS].Server
			nextS++
			if !revoked[i] {
				revoked[i] = true
				batch = append(batch, names[i])
			}
		}
		if len(batch) > 0 {
			sp := tr.begin(spRevoke)
			out, err := mgr.RevokeServers(batch...)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			st.revokeS += tr.seconds(sp)
			st.revokeCalls++
			evacuate(out)
			called()
		}
		for nextS < len(in.shocks) && in.shocks[nextS].At == at {
			sh := in.shocks[nextS]
			nextS++
			if revoked[sh.Server] {
				continue
			}
			sp := tr.begin(spResize)
			out, err := mgr.ResizeServer(names[sh.Server], in.capacity.Scale(sh.Scale))
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			st.resizeS += tr.seconds(sp)
			evacuate(out)
			called()
		}

		// Arrivals: the same-instant batch in trace order.
		dcs, idxs = dcs[:0], idxs[:0]
		for nextA < len(in.arrivals) && in.vms[in.arrivals[nextA]].Start == at {
			idx := in.arrivals[nextA]
			nextA++
			dcs = append(dcs, in.dcs[idx])
			idxs = append(idxs, idx)
		}
		if len(dcs) == 0 {
			continue
		}
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		sp := tr.begin(spPlace)
		pls = mgr.PlaceVMs(dcs, pls[:0])
		tr.end(sp)
		metrics.Read(allocs)
		st.placeAllocs += allocs[0].Value.Uint64() - before
		reclaim := 0
		for i, pl := range pls {
			if pl.NeedsReclaim {
				reclaim++
			}
			if pl.Err != nil {
				st.rejected++
				continue
			}
			st.admitted++
			idx := idxs[i]
			running[idx] = true
			live++
			heap.Push(&deps, departure{in.vms[idx].End, idx})
		}
		d := tr.seconds(sp)
		share := float64(reclaim) / float64(len(pls))
		st.placeS += d
		st.placeReclaimS += d * share
		st.placeSurplusS += d * (1 - share)
		st.placeUS = append(st.placeUS, d*1e6)
		st.placeCalls++
		st.placeVMs += len(pls)
		st.reclaimAttempts += reclaim
		called()
	}
	if liveAtMax > 0 && heapAtMax > heapBase {
		st.bytesPerLiveVM = float64(heapAtMax-heapBase) / float64(liveAtMax)
	}
	return st, nil
}

// equivalent reports how the replay's counts differ from the engine's
// Result; an empty string means they are the same calls.
func (s *replayStats) equivalent(res *clustersim.Result) string {
	got := [5]int{s.admitted, s.rejected, s.reclaimAttempts, s.evacuated, s.killed}
	want := [5]int{res.Admitted, res.Rejected, res.ReclamationAttempts, res.Evacuations, res.ShockKills}
	if got == want {
		return ""
	}
	return fmt.Sprintf("replay admitted/rejected/reclaims/evacuated/killed %v, engine %v", got, want)
}

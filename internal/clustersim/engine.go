package clustersim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"vmdeflate/internal/cluster"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/perfmodel"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/pricing"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/trace"
)

// vmTracking is one row of the engine's metering table: everything a
// sample, a relocation or a close reads about one running deflatable VM,
// held by value so the sample pass walks contiguous memory and never
// chases a pointer to learn what it is standing on. On-demand VMs have
// no row: nothing is metered for them (no demand, no billing, no SLO
// samples), so all the engine keeps is their slotOf sentinel.
type vmTracking struct {
	// rec is the row's own copy of the trace record, read through the
	// row source at admission — series header, start, end, cores — so
	// vmUtil is VMRecord.UtilAt over memory the row owns. On streamed
	// runs the series is nil and cur reads it, and the ID is the one
	// name string the admission allocated, shared with the domain's row.
	rec  trace.VMRecord
	size resources.Vector // == domain.MaxSize()
	// domain is the VM's handle, held by value: its host, slot and
	// generation, from Placement.Domain.
	domain hypervisor.Domain
	// epoch and alloc cache the domain's allocation as read at its host's
	// allocation epoch (epoch == noEpoch: nothing cached). Admission and
	// relocation leave it empty: they bill Placement.Initial, which may
	// differ from the allocation the next sample finds.
	epoch uint64
	alloc resources.Vector
	// cur reads this VM's utilisation incrementally on streamed runs
	// (nil on eager runs, where rec.CPUUtil is materialised). The row
	// source binds it at admission and takes it back when the VM closes.
	cur    *trace.UtilCursor
	prio   float64
	admitT float64 // admission time, for the on-demand-equivalent bill
	demand float64 // integrated demand (core-seconds)
	lost   float64 // integrated demand above allocation
	// row is the VM's trace row: the back-pointer into slotOf that a
	// swap-remove needs to re-point the row it moved.
	row int32
}

// noEpoch is vmTracking.epoch with no allocation cached: no host's
// allocation epoch reaches it.
const noEpoch = ^uint64(0)

// slotOf sentinels: a trace row that is not running (never admitted,
// rejected, departed or shock-killed), and one running as an on-demand
// VM, which the manager hosts but the engine meters nothing for.
const (
	slotNone     int32 = -1
	slotOnDemand int32 = -2
)

// work counts what a run did: plain integers beside its Result, never
// in it and never in a digest, that testdata/work.golden pins.
type work struct {
	// hostWalks counts Host.Aggregates walks over the run's servers,
	// setup included, summed when the run ends.
	hostWalks int
	// allocReads counts the sample pass's allocation reads: rows whose
	// cache missed.
	allocReads int
	// rowsMetered counts the sample pass's row visits.
	rowsMetered int
	// eventsPopped counts the events the loop took off its queue.
	eventsPopped int
}

// observeWork, when set, receives every run's work counts as the run
// ends. Nil in every shipped build.
var observeWork func(w work)

// Engine executes one simulation run. It owns every piece of mutable
// run state — the cluster manager, the pending-event queue, the metering
// table and all metric accumulators — so concurrently executing engines
// share nothing (a shared *trace.AzureTrace is read-only) and a sweep
// worker pool can run one engine per grid point without coordination.
//
// An Engine is single-use: NewEngine builds it, Run consumes it.
type Engine struct {
	cfg      Config
	nServers int

	// rec is the mode the event loop hands each batch to: the engine
	// itself in deflation mode, the baseline in preemption mode.
	rec     reclaimer
	queue   eventQueue
	res     *Result
	horizon float64

	// Deflation-mode state: the manager and its servers' hypervisors.
	mgr   *cluster.Manager
	hosts []*hypervisor.Host

	// The metering table. The trace row is the engine's only VM handle:
	// arrival and departure events carry it (simEvent.seq), evacuation
	// outcomes return it (DomainConfig.Tag), and slotOf — one int32 per
	// trace row — maps it to the VM's row of tbl, or to a sentinel. tbl
	// holds the running deflatable VMs by value, dense (a close
	// swap-removes), and meters is its billing column: tbl[i]'s meters
	// are meters[i*k:(i+1)*k], k = len(pricingSchemes), in scheme
	// order.
	tbl    []vmTracking
	meters []pricing.Meter
	slotOf []int32

	// src is the run's trace, addressed by row: everything the run reads
	// about a VM that its table row does not hold, it reads here.
	src *rowSource

	// Capacity-shock state: the run's schedule, which a shock event's
	// seq indexes; which servers are currently revoked (shocks address
	// servers by index); and, in deflation mode, their names.
	shocks      []trace.CapacityShock
	revoked     []bool
	serverNames []string

	// outStart/outAccum meter each server's out-of-service seconds
	// (deflation mode), so FleetCost bills in-service time only.
	outStart []float64
	outAccum []float64

	demandTotal float64
	lostTotal   float64

	// SLO accumulators (nil/zero unless cfg.SLO is set), all integer
	// counts bumped by the sample pass, so their totals do not depend on
	// the order the table is walked in: the slowdown histogram, the
	// violating samples per quantised priority level and the metered
	// samples.
	sloHist        []uint64
	sloViolByLevel []uint64
	sloSampleCount uint64

	work work

	// Batch scratch, reused across handleArrivals calls (and, for names
	// and servers, the departure and revocation batches).
	dcBuf   []hypervisor.DomainConfig
	prioBuf []float64
	plBuf   []cluster.Placement
	names   []string
	servers []int

	// afterSample, when set, runs after every sample pass, once its load
	// writes are done. Nothing outside the tests sets it.
	afterSample func()
}

// NewEngine validates cfg, resolves the baseline cluster size and
// prepares a run. The BaselineServerCount bound is computed here unless
// cfg.BaselineServers pins it, which sweeps do so that every grid point
// shares one sizing pass and sees an identically sized cluster.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, src: newRowSource(cfg.Trace, cfg.Stream)}
	base := cfg.BaselineServers
	if base == 0 {
		// Sizing is the geometry's first need; the run reuses it.
		var err error
		if base, _, err = sizeFleet(e.src, DefaultServerCapacity()); err != nil {
			return nil, err
		}
	}
	e.nServers = int(math.Ceil(float64(base) / (1 + cfg.Overcommit)))
	if e.nServers < 1 {
		e.nServers = 1
	}
	return e, nil
}

// Run executes the simulation and returns its metrics.
func (e *Engine) Run() (*Result, error) {
	setup := e.setupDeflation
	if e.cfg.Mode == ModePreemption {
		setup = e.setupPreemption
	}
	if err := setup(); err != nil {
		return nil, err
	}
	if err := e.eventLoop(); err != nil {
		return nil, err
	}
	for _, h := range e.hosts {
		e.work.hostWalks += h.AggregateWalks()
	}
	if observeWork != nil {
		observeWork(e.work)
	}
	return e.rec.foldResult(), nil
}

// reclaimer is a mode: what the event loop hands each batch to. The
// engine itself reclaims by deflation through its cluster manager;
// preemption (preemption.go) is the baseline that kills. Before a shock
// reaches it, the loop has done the bookkeeping both modes share: the
// revoked flags and the shock counters; a revocation batch arrives as
// the servers it newly revoked.
type reclaimer interface {
	handleArrivals(evs []simEvent) error
	handleDepartures(evs []simEvent) error
	handleRevocations(servers []int, at float64) error
	handleRestore(server int, at float64) error
	foldResult() *Result
}

// newOracleQueue, when set, builds every run's event queue in place of
// the streamed intake: the test-side binary-heap oracle, every arrival
// pushed up front, that the differential suites hold the intake to.
// Nil in every shipped build.
var newOracleQueue func(src *rowSource) eventQueue

// openQueue builds the run's event queue over the row source's arrival
// order and sets the horizon, the trace's last departure. Arrivals stay
// latent in the trace: a streamQueue delivers them from the
// arrival-order column over a live-set heap, so the heap holds what is
// live, not N pre-pushed events. Departure events are scheduled when
// (and only when) a VM is admitted, samples by the run loop. Either way
// the geometry is released: the queue owns what it needs of it.
func (e *Engine) openQueue() eventQueue {
	src := e.src
	g := src.geometry()
	src.geo = nil
	e.horizon = g.maxEnd
	if newOracleQueue != nil {
		return newOracleQueue(src)
	}
	return newStreamQueue(src.rowAdapter, g.byStart)
}

// setupDeflation builds the deflation-mode run state: the cluster
// manager with its provisioned servers, the event queue seeded with the
// trace and the shock schedule, and the metric accumulators. Split from
// the event loop so white-box benchmarks can stand a populated cluster
// up and drive individual passes.
func (e *Engine) setupDeflation() error {
	cfg := e.cfg
	if err := e.src.open(); err != nil {
		return err
	}
	e.rec = e
	e.mgr = cluster.NewManager(cluster.Config{
		Policy:              cfg.Policy,
		PartitionByPriority: cfg.Partitioned,
		Notify:              cfg.Notify,
	})
	pools := poolPlan(&cfg, e.src, e.nServers)
	e.serverNames = make([]string, e.nServers)
	e.revoked = make([]bool, e.nServers)
	e.outStart = make([]float64, e.nServers)
	e.outAccum = make([]float64, e.nServers)
	capacity := DefaultServerCapacity()
	for i := 0; i < e.nServers; i++ {
		e.serverNames[i] = fmt.Sprintf("node-%03d", i)
		spec := cluster.ServerSpec{Name: e.serverNames[i], Capacity: capacity, Partition: pools[i]}
		s, err := e.mgr.AddServerSpec(spec)
		if err != nil {
			return err
		}
		e.hosts = append(e.hosts, s.Host)
	}

	e.res = &Result{Servers: e.nServers, Revenue: map[string]float64{}, RevenueByPriority: map[int]float64{}}
	if cfg.SLO != nil {
		e.sloHist = make([]uint64, sloHistBuckets)
		e.sloViolByLevel = make([]uint64, priorityLevels)
	}
	e.queue = e.openQueue()
	// 4 bytes per trace row, allocated only now that the geometry is
	// gone.
	e.slotOf = make([]int32, e.src.len())
	for i := range e.slotOf {
		e.slotOf[i] = slotNone
	}
	if trace.SampleInterval <= e.horizon {
		e.queue.push(simEvent{at: trace.SampleInterval, kind: evSample})
	}
	e.pushShocks(e.queue)
	return nil
}

// eventLoop drains the queue a setup seeded, the one loop of both
// modes. It coalesces same-instant arrivals, departures and revocations
// into batches and hands each to the mode (e.rec). In deflation mode
// arrivals are placed (deflating residents when needed), departures
// reinflate survivors, and self-rescheduling sample events meter demand,
// loss and revenue every trace.SampleInterval; the preemption baseline
// schedules no samples. At equal timestamps the queue delivers samples,
// then departures, shocks and arrivals (see eventKind). Split from
// setup and from the result fold so white-box tests can stand between
// them.
func (e *Engine) eventLoop() error {
	r := e.rec
	// Reusable scratch for event batching, so the hot loop does not
	// allocate per event.
	var batch []simEvent
	for !e.queue.empty() {
		ev := e.pop()
		switch ev.kind {
		case evSample:
			e.samplePass(ev.at)
			if e.afterSample != nil {
				e.afterSample()
			}
			if next := ev.at + trace.SampleInterval; next <= e.horizon {
				e.queue.push(simEvent{at: next, kind: evSample})
			}
		case evArrival:
			// Coalesce the run of arrivals sharing this timestamp into one
			// PlaceVMs batch. The queue's (time, kind, seq) order
			// guarantees the batch is exactly the simultaneous arrivals,
			// in trace order — the order the manager places them in, one
			// at a time. One exception preserves the
			// departures-before-arrivals invariant of eventKind: a
			// zero-lifetime VM (End == arrival instant,
			// possible in hand-written CSV traces; the synthetic
			// generators clip lifetimes to >= SampleInterval) departs at
			// this same instant, and that departure must free its capacity
			// for the arrivals still queued behind it — so it closes the
			// batch, its departure event outranks the remaining arrivals,
			// and the loop resumes batching after processing it.
			batch = batch[:0]
			batch = append(batch, ev)
			if e.src.end(ev.seq) > ev.at { // a zero-lifetime first VM is a singleton batch
				for !e.queue.empty() {
					next := e.queue.peek()
					if next.at != ev.at || next.kind != evArrival {
						break
					}
					nb := e.pop()
					batch = append(batch, nb)
					if e.src.end(nb.seq) <= nb.at {
						break // zero-lifetime VM closes the batch (see above)
					}
				}
			}
			if err := r.handleArrivals(batch); err != nil {
				return err
			}
		case evRevoke:
			// Coalesce the run of revocations sharing this timestamp —
			// a rack-sized correlated shock — into ONE multi-server
			// revocation: the servers it newly revokes, in event order,
			// a second revoke of one server dropped.
			batch = batch[:0]
			batch = append(batch, ev)
			for !e.queue.empty() {
				next := e.queue.peek()
				if next.at != ev.at || next.kind != evRevoke {
					break
				}
				batch = append(batch, e.pop())
			}
			servers := e.servers[:0]
			for _, rev := range batch {
				i := e.shocks[rev.seq].Server
				if e.revoked[i] {
					continue // generator guards double revokes; stay safe
				}
				e.revoked[i] = true
				servers = append(servers, i)
			}
			e.servers = servers
			if len(servers) > 0 {
				e.res.Revocations += len(servers)
				if err := r.handleRevocations(servers, ev.at); err != nil {
					return err
				}
			}
		case evRestore:
			i := e.shocks[ev.seq].Server
			if e.revoked[i] {
				e.revoked[i] = false
				if err := r.handleRestore(i, ev.at); err != nil {
					return err
				}
				e.res.Restorations++
			}
		case evDeparture:
			// Coalesce the run of departures sharing this timestamp into
			// one batched removal: the manager reinflates each affected
			// server once instead of once per departing VM. The queue's
			// (time, kind, seq) order guarantees the batch is exactly the
			// simultaneous departures, in trace order.
			batch = batch[:0]
			batch = append(batch, ev)
			for !e.queue.empty() {
				next := e.queue.peek()
				if next.at != ev.at || next.kind != evDeparture {
					break
				}
				batch = append(batch, e.pop())
			}
			if err := r.handleDepartures(batch); err != nil {
				return err
			}
		}
	}
	// Defensively close any VM that somehow outlived its departure
	// event, in (ID, trace row) order so accumulator arithmetic stays
	// deterministic.
	if len(e.tbl) > 0 {
		left := make([]int32, len(e.tbl))
		for i := range left {
			left[i] = int32(i)
		}
		slices.SortFunc(left, func(a, b int32) int {
			return cmp.Or(strings.Compare(e.tbl[a].rec.ID, e.tbl[b].rec.ID), cmp.Compare(e.tbl[a].row, e.tbl[b].row))
		})
		for _, slot := range left {
			e.closeVM(slot, e.horizon)
		}
	}
	return nil
}

// pop takes the next event off the queue and counts it.
func (e *Engine) pop() simEvent {
	e.work.eventsPopped++
	return e.queue.pop()
}

// handleRevocations revokes one same-instant batch of servers through
// the manager in one call, so every VM displaced across the whole shock
// relocates through a single placement batch, and starts their outage
// clocks for FleetCost.
func (e *Engine) handleRevocations(servers []int, at float64) error {
	names := e.names[:0]
	for _, i := range servers {
		e.outStart[i] = at
		names = append(names, e.serverNames[i])
	}
	e.names = names
	out, err := e.mgr.RevokeServers(names...)
	if err != nil {
		return err
	}
	e.applyEvacuation(out, at)
	return nil
}

// handleRestore returns a server to the manager and stops its outage
// clock, clamped to the horizon: a late shock's outage can overrun it.
func (e *Engine) handleRestore(i int, at float64) error {
	if end := math.Min(at, e.horizon); end > e.outStart[i] {
		e.outAccum[i] += end - e.outStart[i]
	}
	return e.mgr.RestoreServer(e.serverNames[i])
}

// handleDepartures closes one same-timestamp batch of departing VMs and
// removes them from the manager in one call. A departure resolves
// through its trace row: slotOf says whether the VM is still running —
// a shock-killed VM's queued departure finds slotNone and is skipped,
// whoever has reused its ID since — and where its table row is.
func (e *Engine) handleDepartures(evs []simEvent) error {
	names := e.names[:0]
	for _, dev := range evs {
		slot := e.slotOf[dev.seq]
		if slot == slotNone {
			continue
		}
		if slot >= 0 {
			e.closeVM(slot, dev.at)
			e.dropRow(slot)
		}
		e.slotOf[dev.seq] = slotNone
		names = append(names, dev.name)
	}
	e.names = names
	if len(names) == 0 {
		return nil
	}
	return e.mgr.RemoveVMs(names...)
}

// foldResult converts the run's accumulators into the Result. Every
// admission failure of a deflation run is a failure to reclaim enough.
func (e *Engine) foldResult() *Result {
	e.res.ReclamationFailures = e.res.Rejected
	// FleetCost: bill each server's in-service core-hours, in server
	// index order. Outage intervals accumulated in event order;
	// still-revoked servers charge out to the horizon.
	rate := DefaultServerCapacity().Get(resources.CPU)
	for i := range e.outAccum {
		out := e.outAccum[i]
		if e.revoked[i] && e.horizon > e.outStart[i] {
			out += e.horizon - e.outStart[i]
		}
		e.res.FleetCost += rate * (e.horizon - out) / 3600
	}
	if e.res.ReclamationAttempts > 0 {
		e.res.FailureProbability = float64(e.res.ReclamationFailures) / float64(e.res.ReclamationAttempts)
	}
	if e.demandTotal > 0 {
		e.res.ThroughputLoss = e.lostTotal / e.demandTotal
	}
	if e.res.OnDemandRevenue > 0 {
		e.res.CostSavings = make(map[string]float64, len(pricingSchemes))
		for _, s := range pricingSchemes {
			e.res.CostSavings[s.Name()] = 1 - e.res.Revenue[s.Name()]/e.res.OnDemandRevenue
		}
	}
	if e.cfg.SLO != nil {
		e.finishSLO()
	}
	return e.res
}

// foldScan adds one placement's under-pressure scan to the run's meters.
func (r *Result) foldScan(pl cluster.Placement) {
	if pl.Path == cluster.PathPressure {
		r.PressuredArrivals++
	}
	r.PressureScored += pl.Scored
	r.PressurePruned += pl.Pruned
}

// sloHistBuckets and sloHistScale shape the slowdown histogram: bucket i
// covers slowdown (1 + i/scale, 1 + (i+1)/scale], so 128 buckets at
// resolution 0.05 track slowdowns up to 7.4x before saturating —
// comfortably past any plausible SLO threshold.
const (
	sloHistBuckets = 128
	sloHistScale   = 20
	// sloSlowdownCap bounds the modelled slowdown for metering: far past
	// every threshold and histogram bucket, yet small enough that the
	// bucket-index conversion to int stays well-defined.
	sloSlowdownCap = 1e6
)

// finishSLO folds the integer SLO accumulators into the Result,
// converted to seconds and rates only at the very end. The p99 proxy is
// the upper edge of the first histogram bucket at or past the 99th
// percentile, compared in integers (cum*100 >= total*99) so no division
// order can flip a boundary sample; every metered sample lands in one
// bucket, so the histogram's total is the sample count.
func (e *Engine) finishSLO() {
	res := e.res
	res.SLOViolationsByPriority = make(map[int]float64, len(e.sloViolByLevel))
	var viol uint64
	for lvl, n := range e.sloViolByLevel {
		res.SLOViolationsByPriority[lvl] = float64(n) * trace.SampleInterval
		viol += n
	}
	total := e.sloSampleCount
	res.SLOViolationSeconds = float64(viol) * trace.SampleInterval
	res.SLOSampleSeconds = float64(total) * trace.SampleInterval
	if total == 0 {
		return
	}
	res.SLOViolationRate = float64(viol) / float64(total)
	var cum uint64
	for i, v := range e.sloHist {
		cum += v
		if cum*100 >= total*99 {
			res.SLOLatencyP99 = 1 + float64(i+1)/sloHistScale
			return
		}
	}
}

// pushShocks schedules the run's capacity-shock events: the explicit
// Config.Shocks list when given, otherwise a schedule generated for
// this run's own server count from Config.ShockConfig. Shocks
// addressing servers beyond the provisioned count are dropped, so one
// schedule replays against any cluster size. Every kind is known:
// applyDefaults rejects an explicit entry of any other.
func (e *Engine) pushShocks(q eventQueue) {
	kindOf := [...]eventKind{trace.ShockRevoke: evRevoke, trace.ShockRestore: evRestore}
	shocks := e.cfg.Shocks
	if shocks == nil && e.cfg.ShockConfig != nil {
		sc := *e.cfg.ShockConfig
		if sc.Duration <= 0 {
			sc.Duration = e.horizon
		}
		shocks = trace.GenerateShocks(sc, e.nServers)
	}
	e.shocks = shocks
	for i, sh := range shocks {
		if sh.Server < 0 || sh.Server >= e.nServers {
			continue
		}
		q.push(simEvent{at: sh.At, kind: kindOf[sh.Kind], seq: i})
	}
}

// remainingDemand integrates a VM's CPU demand (core-seconds) from
// time t to its natural end: the demand a kill destroys, read like every
// other utilisation sample (vmUtil). Shared by the preemption baseline
// and the deflation engine's shock kills so both charge a destroyed VM
// identically, whichever adapter the run reads.
func remainingDemand(rec *trace.VMRecord, cur *trace.UtilCursor, t float64) float64 {
	var d float64
	for ts := t; ts < rec.End; ts += trace.SampleInterval {
		d += vmUtil(rec, cur, ts) / 100 * float64(rec.Cores) * trace.SampleInterval
	}
	return d
}

// applyEvacuation folds one capacity shock's evacuation outcome into
// the run state. Each displaced configuration carries its trace row in
// Tag, so an evacuee resolves through slotOf like a departure does:
// relocated VMs swap to their new domains (and re-meter
// allocation-based billing at the relocation allocation), killed VMs
// are settled and dropped at the shock instant — their already-queued
// departure events become stale and are skipped by the departure
// batch's slotNone guard. A killed deflatable VM's never-served
// future demand is charged to both the demand and loss integrals,
// exactly as the preemption baseline charges its shock kills, so the
// two modes' ThroughputLoss stays comparable under shocks.
func (e *Engine) applyEvacuation(out cluster.Evacuation, at float64) {
	for i := range out.VMs {
		pl := out.Placements[i]
		e.res.foldScan(pl) // every relocation is scan work, whoever it moved
		row := out.VMs[i].Tag
		slot := e.slotOf[row]
		if slot == slotNone {
			continue
		}
		if pl.Err != nil {
			e.res.ShockKills++
			if slot >= 0 {
				vt := &e.tbl[slot]
				rem := remainingDemand(&vt.rec, vt.cur, at)
				vt.demand += rem
				vt.lost += rem
				e.closeVM(slot, at)
				e.dropRow(slot)
			}
			e.slotOf[row] = slotNone
			continue
		}
		e.res.Evacuations++
		e.res.DisplacedDowntime += evacuationDowntime
		if slot < 0 {
			continue // on-demand: the manager holds its new domain
		}
		vt := &e.tbl[slot]
		vt.domain, vt.epoch = pl.Domain, noEpoch
		meters := e.metersOf(slot)
		for j := range meters {
			meters[j].Observe(at/3600, pricingSchemes[j].Rate(vt.size, vt.prio, pl.Initial))
		}
	}
}

// samplePass meters every running deflatable VM at one 5-minute
// boundary, in table order. Each sampleVM call writes floats only into
// its own table row, domain and meters, and bumps integer SLO counters,
// so the order swap-removes have left the table in cannot change any
// result.
func (e *Engine) samplePass(at float64) {
	e.work.rowsMetered += len(e.tbl)
	k := len(pricingSchemes)
	for i := range e.tbl {
		e.sampleVM(&e.tbl[i], e.meters[i*k:(i+1)*k], at)
	}
}

// metersOf returns table row slot's slice of the meter column.
func (e *Engine) metersOf(slot int32) []pricing.Meter {
	k := len(pricingSchemes)
	return e.meters[int(slot)*k : (int(slot)+1)*k]
}

// addRow appends a table row (with k zero meters) for trace row
// vt.row and returns its slot; dropRow swap-removes one, moving the
// last row and its meters into the hole and re-pointing that row's
// slotOf entry. The swap reorders the table, but sampling is per-VM
// isolated so order never matters.
func (e *Engine) addRow(vt vmTracking) int32 {
	slot := int32(len(e.tbl))
	e.tbl = append(e.tbl, vt)
	for range pricingSchemes {
		e.meters = append(e.meters, pricing.Meter{})
	}
	e.slotOf[vt.row] = slot
	return slot
}

func (e *Engine) dropRow(slot int32) {
	last := int32(len(e.tbl) - 1)
	e.slotOf[e.tbl[slot].row] = slotNone
	if slot != last {
		e.tbl[slot] = e.tbl[last]
		copy(e.metersOf(slot), e.metersOf(last))
		e.slotOf[e.tbl[slot].row] = slot
	}
	e.tbl[last] = vmTracking{} // drop the domain/cursor/series pointers for the GC
	e.tbl = e.tbl[:last]
	e.meters = e.meters[:int(last)*len(pricingSchemes)]
}

// closeVM settles table row slot's meters and folds its demand
// integrals into the run accumulators. The row stays until dropRow.
func (e *Engine) closeVM(slot int32, at float64) {
	vt := &e.tbl[slot]
	finishVM(vt, e.metersOf(slot), at, e.res)
	e.demandTotal += vt.demand
	e.lostTotal += vt.lost
	if vt.cur != nil {
		e.src.release(vt.cur)
		vt.cur = nil
	}
}

// handleArrivals admits one same-timestamp batch of VMs through the
// manager's batch placement (one at a time, in trace order), scheduling
// departures only for placements that succeed (rejected VMs leave no
// residue in the queue). Admission-time billing reads
// Placement.Initial — the allocation the VM launched with, before any
// later VM of the same batch deflated it. An arrival whose ID is still
// running fails the run: the manager is keyed by name and cannot hold
// both. So does one whose configuration no hypervisor accepts (memory
// below the guest kernel's reserve), and an interactive one whose P95,
// and so its priority, is undefined (errUndefinedP95): each is a bad
// trace row, not an admission decision.
func (e *Engine) handleArrivals(evs []simEvent) error {
	cfg := &e.cfg
	dcs := e.dcBuf[:0]
	prios := e.prioBuf[:0]
	for _, ev := range evs {
		vm := e.src.vm(ev.seq, e.src.id(ev.seq))
		deflatable := vm.Class == trace.Interactive
		var prio float64
		dc := hypervisor.DomainConfig{
			Name:       vm.ID,
			Size:       vmSize(&vm),
			Deflatable: deflatable,
			Tag:        int32(ev.seq), // the trace row, back in evacuation outcomes
		}
		// An on-demand VM's priority stays 0: nothing reads a
		// P95-derived priority for it (no meters, no SLO samples).
		if deflatable {
			p95, atStart := e.src.util(ev.seq)
			if math.IsNaN(p95) {
				return errUndefinedP95(vm.ID, ev.seq, len(vm.CPUUtil))
			}
			prio = policy.PriorityFromP95(p95, priorityLevels)
			dc.Priority = prio
			if cfg.SLO != nil {
				// Seed the admission-time offered load so the VM's own
				// admission pass (and any deflation it triggers) sees it.
				dc.Load = atStart / 100 * float64(vm.Cores)
			}
		}
		dcs = append(dcs, dc)
		prios = append(prios, prio)
	}
	e.dcBuf, e.prioBuf = dcs, prios

	e.plBuf = e.mgr.PlaceVMs(dcs, e.plBuf[:0])
	placements := e.plBuf
	for i, ev := range evs {
		e.res.Arrivals++
		pl := placements[i]
		e.res.foldScan(pl)
		// Count reclamation attempts: did this placement need deflation?
		// The batch evaluates the check against the same state the
		// placement decision saw.
		if pl.NeedsReclaim {
			e.res.ReclamationAttempts++
		}
		if pl.Err != nil {
			if errors.Is(pl.Err, cluster.ErrExists) {
				return errLiveTwice(dcs[i].Name, ev.seq)
			}
			if errors.Is(pl.Err, hypervisor.ErrInvalid) {
				return fmt.Errorf("clustersim: trace row %d: VM ID %q: %w", ev.seq, dcs[i].Name, pl.Err)
			}
			e.res.Rejected++
			continue
		}
		e.res.Admitted++
		vm := e.src.vm(ev.seq, dcs[i].Name)
		e.queue.push(simEvent{at: vm.End, kind: evDeparture, name: vm.ID, seq: ev.seq})
		if !dcs[i].Deflatable {
			e.slotOf[ev.seq] = slotOnDemand
			continue
		}
		e.res.DeflatableAdmitted++
		vt := vmTracking{rec: vm, size: dcs[i].Size, domain: pl.Domain, epoch: noEpoch, cur: e.src.cursor(ev.seq),
			admitT: ev.at, prio: prios[i], row: int32(ev.seq)}
		meters := e.metersOf(e.addRow(vt))
		for j, s := range pricingSchemes {
			meters[j].Observe(ev.at/3600, s.Rate(dcs[i].Size, prios[i], pl.Initial))
		}
	}
	return nil
}

// errLiveTwice reports an arrival whose VM ID is still running from an
// earlier trace row.
func errLiveTwice(id string, row int) error {
	return fmt.Errorf("clustersim: trace row %d: VM ID %q arrives while an earlier row with that ID is still running", row, id)
}

// errUndefinedP95 reports an interactive trace row whose CPU P95, and so
// its deflation priority, is undefined: a row with no samples, which a
// CSV trace may hold, or, in a trace built in code, a NaN sample.
func errUndefinedP95(id string, row, samples int) error {
	if samples == 0 {
		return fmt.Errorf("clustersim: trace row %d: interactive VM ID %q has no CPU samples to derive its priority from", row, id)
	}
	return fmt.Errorf("clustersim: trace row %d: interactive VM ID %q has a NaN CPU sample, so its priority is undefined", row, id)
}

// sampleVM accumulates demand/loss, SLO state and allocation-based
// billing at one 5-minute boundary. Its float writes go only to vt's own
// row and meters. The allocation comes from the row's cache while the
// host's allocation epoch still matches it — each meter then holds the
// rate it already bills, the same bits a Scheme.Rate call would return —
// and is otherwise re-read together with the epoch. With
// cfg.SLO set it additionally maps the offered load and current
// allocation to a request slowdown through the closed-form PS model —
// pure float math, so the pass stays allocation-free — counts the sample
// into the run's integer SLO accumulators, and publishes the load to the
// domain for the latency-aware policy's next pass.
func (e *Engine) sampleVM(vt *vmTracking, meters []pricing.Meter, at float64) {
	cfg := &e.cfg
	util := vmUtil(&vt.rec, vt.cur, at)
	hit := vt.epoch == vt.domain.Host().AllocEpoch()
	if !hit {
		vt.alloc, vt.epoch = vt.domain.AllocationEpoch()
		e.work.allocReads++
	}
	size, alloc := vt.size, vt.alloc
	maxCores := size.Get(resources.CPU)
	allocCores := alloc.Get(resources.CPU)
	demand := util / 100 * maxCores * trace.SampleInterval
	vt.demand += demand
	if over := util/100*maxCores - allocCores; over > 0 {
		vt.lost += over * trace.SampleInterval
	}
	if cfg.SLO != nil {
		load := util / 100 * maxCores
		vt.domain.SetOfferedLoad(load)
		effCap := cfg.SLO.Curve.EffectiveCapacity(maxCores, allocCores)
		s := perfmodel.PSSlowdownRatio(load, maxCores, effCap, sloSlowdownCap)
		e.sloSampleCount++
		if s > cfg.SLO.MaxSlowdown+1e-9 {
			e.sloViolByLevel[priorityLevel(vt.prio)]++
		}
		idx := int((s - 1) * sloHistScale)
		if idx < 0 {
			idx = 0
		} else if idx >= sloHistBuckets {
			idx = sloHistBuckets - 1
		}
		e.sloHist[idx]++
	}
	if hit {
		for i := range meters {
			meters[i].Hold(at / 3600)
		}
		return
	}
	for i := range meters {
		meters[i].Observe(at/3600, pricingSchemes[i].Rate(size, vt.prio, alloc))
	}
}

// vmUtil reads a VM's utilisation at time t: through the streamed
// cursor when one is bound (samples advance monotonically, so the
// cursor's forward reads are O(1) amortised), else from the record's
// materialised series. The two produce identical bits — the cursor
// replays the same generator from the same per-VM seed.
func vmUtil(rec *trace.VMRecord, cur *trace.UtilCursor, at float64) float64 {
	if cur != nil {
		return cur.At(at)
	}
	return rec.UtilAt(at)
}

// finishVM settles a departing (or shock-killed) deflatable VM's
// billing: each scheme's meter closes into Revenue, the "priority"
// scheme is additionally split by quantised priority level, and the VM's
// on-demand-equivalent bill (cores × hours at rate 1) accumulates so
// the run can report the paper's customer cost-savings fraction.
func finishVM(vt *vmTracking, meters []pricing.Meter, at float64, res *Result) {
	for i := range meters {
		name := pricingSchemes[i].Name()
		rev := meters[i].Close(at / 3600)
		res.Revenue[name] += rev
		if name == "priority" {
			res.RevenueByPriority[priorityLevel(vt.prio)] += rev
		}
	}
	res.OnDemandRevenue += float64(vt.rec.Cores) * (at - vt.admitT) / 3600
}

// priorityLevel maps a quantised priority pi = (level+1)/priorityLevels
// back to its zero-based level index.
func priorityLevel(prio float64) int {
	return min(max(int(prio*priorityLevels+0.5)-1, 0), priorityLevels-1)
}

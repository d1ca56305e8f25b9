package clustersim

import (
	"sort"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/stats"
	"vmdeflate/internal/trace"
)

// Streamed-trace support: everything a run needs from a trace.Stream
// without materialising VMRecords. The geometry pass below is the only
// O(N)-memory structure a streamed run builds, and it is compact — a
// few machine words per VM instead of a record plus a utilisation
// slice — and mostly freed before the event loop starts.

// streamGeometry is the compact sizing/planning view of a stream: VM
// indices sorted by start and by end, the start/end/cores columns, and
// the trace horizon. It exists through engine setup (cluster sizing,
// partition planning, queue seeding) and is released before the run
// loop, leaving only the arrival order with the queue.
type streamGeometry struct {
	byStart []int32 // VM indices sorted by (Start, index)
	byEnd   []int32 // VM indices sorted by (End, index)
	starts  []float64
	ends    []float64
	cores   []int32
	maxEnd  float64
}

// newStreamGeometry runs the one Params pass over the stream and sorts
// the two index columns.
func newStreamGeometry(s *trace.Stream) *streamGeometry {
	n := s.Len()
	g := &streamGeometry{
		byStart: make([]int32, n),
		byEnd:   make([]int32, n),
		starts:  make([]float64, n),
		ends:    make([]float64, n),
		cores:   make([]int32, n),
	}
	for i := 0; i < n; i++ {
		p := s.Params(i)
		g.starts[i], g.ends[i], g.cores[i] = p.Start, p.End, int32(p.Cores)
		g.byStart[i], g.byEnd[i] = int32(i), int32(i)
		if p.End > g.maxEnd {
			g.maxEnd = p.End
		}
	}
	// (key, index) is a strict total order, so an unstable sort is
	// deterministic.
	sort.Slice(g.byStart, func(a, b int) bool {
		ia, ib := g.byStart[a], g.byStart[b]
		if g.starts[ia] != g.starts[ib] {
			return g.starts[ia] < g.starts[ib]
		}
		return ia < ib
	})
	sort.Slice(g.byEnd, func(a, b int) bool {
		ia, ib := g.byEnd[a], g.byEnd[b]
		if g.ends[ia] != g.ends[ib] {
			return g.ends[ia] < g.ends[ib]
		}
		return ia < ib
	})
	return g
}

// forEachEvent merges the two sorted index columns into exactly the
// order buildEvents produces for the materialised trace — (time,
// departures-first, trace index) — without allocating the 2N event
// slice. Bounds and partition planning replay this walk, which is what
// keeps their float accumulations bit-identical to the eager path.
func (g *streamGeometry) forEachEvent(fn func(idx int32, arrival bool) bool) {
	i, j := 0, 0
	for i < len(g.byStart) || j < len(g.byEnd) {
		var takeArrival bool
		switch {
		case i >= len(g.byStart):
			takeArrival = false
		case j >= len(g.byEnd):
			takeArrival = true
		default:
			// Departure first on time ties, matching buildEvents.
			takeArrival = g.ends[g.byEnd[j]] > g.starts[g.byStart[i]]
		}
		if takeArrival {
			if !fn(g.byStart[i], true) {
				return
			}
			i++
		} else {
			if !fn(g.byEnd[j], false) {
				return
			}
			j++
		}
	}
}

// partitionPlanStream is partitionPlan over a streamed trace: the same
// peak-concurrent-demand-per-level accounting in the same event order,
// with per-VM priority levels derived by synthesizing each interactive
// VM's utilisation series once (the P95 the eager path reads off the
// materialised record).
func partitionPlanStream(cfg Config, s *trace.Stream, g *streamGeometry, nServers int) []int {
	out := make([]int, nServers)
	if !cfg.Partitioned {
		return out
	}
	levels := cfg.PriorityLevels
	lvlOf := make([]int8, s.Len())
	synth := trace.NewSeriesSynth()
	var buf []float64
	for i := 0; i < s.Len(); i++ {
		p := s.Params(i)
		lvl := levels - 1 // on-demand pool
		if p.Class == trace.Interactive {
			buf = synth.Append(p, buf[:0])
			pr := policy.PriorityFromP95(stats.Percentile(buf, 95), levels)
			lvl = int(pr*float64(levels)) - 1
			if lvl < 0 {
				lvl = 0
			}
			if lvl >= levels {
				lvl = levels - 1
			}
		}
		lvlOf[i] = int8(lvl)
	}
	demand := make([]float64, levels)
	current := make([]float64, levels)
	g.forEachEvent(func(idx int32, arrival bool) bool {
		lvl := lvlOf[idx]
		if arrival {
			current[lvl] += float64(g.cores[idx])
			if current[lvl] > demand[lvl] {
				demand[lvl] = current[lvl]
			}
		} else {
			current[lvl] -= float64(g.cores[idx])
		}
		return true
	})
	return allocatePools(out, demand, nServers, levels)
}

// streamChunkShift sizes the arrival-order chunks: 1<<20 arrivals
// (4 MB of int32) per chunk, released as soon as the scan moves past
// them, so the retained arrival column shrinks toward zero as the run
// progresses instead of pinning 4 bytes per trace VM to the end.
const streamChunkShift = 20

// liveSetHint is the calendar size hint of a live-set queue. It holds
// departures, samples and shocks for the currently running VMs only, so
// a modest ring is right whatever the trace length — it resizes itself
// as the population moves.
const liveSetHint = 1024

// streamQueue is the one arrival intake, for streamed and eager traces
// alike: arrivals stay latent in the trace and are delivered from a
// pre-sorted arrival-order column (rows by (Start, row) — eventLess
// restricted to arrivals), one record at a time as the simulation
// reaches them, while departures, samples and shocks live in a
// conventional inner queue sized to the live set. A streamed trace
// materialises the record from the row's parameters; an eager one
// already holds it. The arrival order is held in chunks whose consumed
// prefix is freed incrementally, so peak queue memory is the unconsumed
// arrival suffix plus O(live events) — never the N-deep event set a
// pre-pushed seed would build.
type streamQueue struct {
	// Exactly one of s and vms is set: where record(row) comes from.
	s      *trace.Stream
	vms    []*trace.VMRecord
	chunks [][]int32 // arrival order; consumed chunks are nilled
	next   int       // next undelivered absolute position
	total  int
	headOK bool
	head   simEvent // the next arrival, record resolved
	inner  eventQueue
}

// newStreamQueue copies byStart (the arrival order column) into
// releasable chunks; the caller's slice can then be dropped. Arrivals
// read their records from s (streamed) or vms (eager).
func newStreamQueue(s *trace.Stream, vms []*trace.VMRecord, byStart []int32, inner eventQueue) *streamQueue {
	q := &streamQueue{s: s, vms: vms, total: len(byStart), inner: inner}
	const chunk = 1 << streamChunkShift
	for off := 0; off < len(byStart); off += chunk {
		end := off + chunk
		if end > len(byStart) {
			end = len(byStart)
		}
		c := make([]int32, end-off)
		copy(c, byStart[off:end])
		q.chunks = append(q.chunks, c)
	}
	return q
}

// record resolves a trace row to its VM record.
func (q *streamQueue) record(row int) *trace.VMRecord {
	if q.s != nil {
		return materializeVM(q.s.Params(row))
	}
	return q.vms[row]
}

// materializeVM builds the streamed form of a VMRecord: metadata only,
// CPUUtil left nil. The engine reads utilisation through a UtilCursor
// instead — vmUtil and remainingDemandOf dispatch on vt.cur — so the
// nil slice is never consulted.
func materializeVM(p trace.VMParams) *trace.VMRecord {
	return &trace.VMRecord{
		ID:       p.ID(),
		Class:    p.Class,
		Cores:    p.Cores,
		MemoryMB: p.MemoryMB,
		Start:    p.Start,
		End:      p.End,
	}
}

// ensureHead resolves the next pending arrival, if any, releasing each
// arrival-order chunk as the scan leaves it.
func (q *streamQueue) ensureHead() {
	if q.headOK || q.next >= q.total {
		return
	}
	const mask = 1<<streamChunkShift - 1
	c := q.next >> streamChunkShift
	idx := q.chunks[c][q.next&mask]
	q.next++
	if q.next&mask == 0 || q.next >= q.total {
		q.chunks[c] = nil
	}
	vm := q.record(int(idx))
	q.head = simEvent{at: vm.Start, kind: evArrival, vm: vm, seq: int(idx)}
	q.headOK = true
}

func (q *streamQueue) empty() bool {
	return !q.headOK && q.next >= q.total && q.inner.empty()
}

func (q *streamQueue) push(e simEvent) {
	// The engine never schedules arrivals — they exist only in the
	// trace — so everything pushed belongs to the live-set queue.
	q.inner.push(e)
}

func (q *streamQueue) peek() simEvent {
	q.ensureHead()
	if !q.headOK {
		return q.inner.peek()
	}
	if q.inner.empty() || eventLess(q.head, q.inner.peek()) {
		return q.head
	}
	return q.inner.peek()
}

func (q *streamQueue) pop() simEvent {
	q.ensureHead()
	if !q.headOK {
		return q.inner.pop()
	}
	if q.inner.empty() || eventLess(q.head, q.inner.peek()) {
		q.headOK = false
		return q.head
	}
	return q.inner.pop()
}

package clustersim

import (
	"fmt"
	"math"
	"sort"

	"vmdeflate/internal/resources"
	"vmdeflate/internal/trace"
)

// BaselineServerCount returns the paper's "minimum cluster size capable
// of running all VMs without any preemptions or admission-controlled
// rejections": the smallest fleet, at or above the peak-aggregate-demand
// lower bound, on which a full-allocation tightest-fit replay of the
// trace admits every VM (fragmentation can push the answer above the
// aggregate bound). It fails if any single VM exceeds a server.
func BaselineServerCount(tr *trace.AzureTrace, serverCap resources.Vector) (int, error) {
	n, _, err := sizeFleet(newRowSource(tr, nil), serverCap)
	return n, err
}

// PeakServerLowerBound returns the aggregate-demand lower bound on the
// cluster size: the peak concurrent committed demand divided by the
// server capacity, per dimension. It is the first of BaselineServerCount's
// two trace walks; the packing replay that follows can only raise it,
// by the servers fragmentation costs. The scale benchmarks pin this
// bound as their baseline.
func PeakServerLowerBound(tr *trace.AzureTrace, serverCap resources.Vector) (int, error) {
	return peakLowerBound(newRowSource(tr, nil), serverCap)
}

// PeakServerLowerBoundStream is PeakServerLowerBound for a streamed
// trace: identical accumulation order, identical result, O(N) compact
// memory instead of the materialised trace.
func PeakServerLowerBoundStream(s *trace.Stream, serverCap resources.Vector) (int, error) {
	return peakLowerBound(newRowSource(nil, s), serverCap)
}

// peakLowerBound starts every sizing, so it is where the capacity is
// checked: a NaN or +Inf component would otherwise drop out of the
// per-dimension bound and the scan's share order alike.
func peakLowerBound(src *rowSource, serverCap resources.Vector) (int, error) {
	if err := serverCap.CheckCapacity(); err != nil {
		return 0, fmt.Errorf("clustersim: server %w", err)
	}
	var cur, peak resources.Vector
	var err error
	g := src.geometry()
	g.walk(func(row int32, arrival bool) bool {
		size := g.size(row)
		if !arrival {
			cur = cur.Sub(size)
			return true
		}
		if !size.FitsIn(serverCap) {
			err = fmt.Errorf("clustersim: VM %s (%v) exceeds server capacity %v",
				src.id(int(row)), size, serverCap)
			return false
		}
		cur = cur.Add(size)
		peak = peak.Max(cur)
		return true
	})
	if err != nil {
		return 0, err
	}
	lb := 1
	for _, k := range resources.Kinds {
		if serverCap.Get(k) <= 0 {
			continue
		}
		if need := int(math.Ceil(peak.Get(k) / serverCap.Get(k))); need > lb {
			lb = need
		}
	}
	return lb, nil
}

// sizingWork is what one sizing did, in hardware-independent counts:
// tightest-fit scans (one per arrival) and the servers those scans
// examined.
type sizingWork struct {
	scans, examined int
}

// sizeFleet is the one fleet-sizing routine: the lower bound, then the
// packing replay from there. Fragmentation can exceed the aggregate
// bound, but not without limit; 4x is a generous safety margin that
// turns a logic error into a diagnosable failure.
func sizeFleet(src *rowSource, serverCap resources.Vector) (int, sizingWork, error) {
	lb, err := peakLowerBound(src, serverCap)
	if err != nil {
		return 0, sizingWork{}, err
	}
	return packFleet(src, lb, 4*lb+4, serverCap)
}

// packFleet returns the smallest n in [start, limit] for which a
// full-allocation tightest-fit replay of the trace on n servers admits
// every VM. Tightest fit (minimise the chosen server's leftover dominant
// share) keeps large servers whole so big VMs stay placeable — the right
// objective for a feasibility bound, as opposed to the load-balancing
// objective used for live deflation-aware placement.
//
// It finds n in one replay that appends an empty server whenever an
// arrival fits nowhere, instead of replaying once per candidate n. The
// two agree because an empty server is never preferred: its free vector
// is serverCap, at least every other server's in each dimension, so its
// leftover share is at least theirs, and as the highest index it loses
// every tie: tightest fit picks the least (leftover, index), in the
// linear scan and in fleet.fit alike. The replay on n+1 servers
// therefore equals the replay on n servers up to n's first miss and
// puts that arrival on server n — exactly the state appending produces
// — and by induction the final count is the smallest n with no miss.
// The premise
// free <= serverCap is kept exact by clamping at each departure: with
// fractional sizes, round-off can leave a server that has emptied an ulp
// above capacity, a replay on more servers then prefers a truly empty
// one, and the two replays part (FuzzSizeFleet's ulp-high-empty-server
// seed is such a trace).
//
// where is the placement column, indexed by trace row, so duplicate VM
// IDs in an imported trace cannot alias one another.
func packFleet(src *rowSource, start, limit int, serverCap resources.Vector) (int, sizingWork, error) {
	var work sizingWork
	f := newFleet(start, serverCap)
	where := make([]int32, src.len())
	for i := range where {
		where[i] = -1
	}
	g := src.geometry()
	g.walk(func(row int32, arrival bool) bool {
		if !arrival {
			// A zero-lifetime VM departs before it arrives and then
			// stays: there is nothing to free yet.
			if sv := where[row]; sv >= 0 {
				f.depart(int(sv), g.size(row))
				where[row] = -1
			}
			return true
		}
		work.scans++
		where[row] = int32(f.arrive(g.size(row)))
		return len(f.free) <= limit
	})
	work.examined = f.examined
	if len(f.free) > limit {
		return 0, work, fmt.Errorf("clustersim: no feasible packing within %d servers", limit)
	}
	return len(f.free), work, nil
}

// fleet is the servers of a tightest-fit placer, the packing replay's
// and the preemption baseline's: each one's free vector and dominant
// free share by index, and the indices in (share, index) order, which
// fit walks. A change to one server re-sorts only that server.
type fleet struct {
	capacity resources.Vector
	free     []resources.Vector
	share    []float64 // free[i].DominantShare(capacity)
	order    []int32   // server indices by (share, index), ascending
	pos      []int32   // pos[i] is server i's place in order
	// eps and delta are fit's start and stop slacks.
	eps, delta float64
	examined   int // servers fit has examined, a work count the sizing test pins
}

// newFleet returns n empty servers of the given capacity, which must
// pass CheckCapacity. The slacks come from the capacity: FitsIn lets a
// component exceed its free amount by FitTolerance, which is at most
// tol = FitTolerance / (smallest positive capacity component) as a
// share. No share a sizing computes exceeds 1 + tol (a VM is checked
// against the capacity first), so 32 units of round-off at that scale
// bound the few roundings between a share and the bound it is held to;
// fit scales the start slack for larger demands.
func newFleet(n int, capacity resources.Vector) *fleet {
	cmin := math.Inf(1)
	for _, c := range capacity {
		if c > 0 {
			cmin = min(cmin, c)
		}
	}
	tol := resources.FitTolerance / cmin
	f := &fleet{capacity: capacity, delta: 0x1p-48 * (1 + tol)}
	f.eps = tol + f.delta
	for range n {
		f.grow()
	}
	return f
}

// arrive places size on the server fit picks, appending an empty server
// when none fits, and returns the server.
func (f *fleet) arrive(size resources.Vector) int {
	best := f.fit(size)
	if best < 0 {
		best = f.grow()
	}
	f.set(best, f.free[best].Sub(size))
	return best
}

// depart frees size on server i, clamped to the capacity (packFleet
// says why).
func (f *fleet) depart(i int, size resources.Vector) {
	f.set(i, f.free[i].Add(size).Min(f.capacity))
}

// grow appends an empty server and returns its index.
func (f *fleet) grow() int {
	i := len(f.free)
	f.free = append(f.free, resources.Vector{})
	f.share = append(f.share, 0)
	f.pos = append(f.pos, int32(i))
	f.order = append(f.order, int32(i))
	f.set(i, f.capacity)
	return i
}

// set stores server i's free vector and steps i to its place in the
// order, one neighbour at a time.
func (f *fleet) set(i int, free resources.Vector) {
	f.free[i] = free
	f.share[i] = free.DominantShare(f.capacity)
	p, s := int(f.pos[i]), int32(i)
	for ; p > 0 && f.less(s, f.order[p-1]); p-- {
		f.order[p] = f.order[p-1]
		f.pos[f.order[p]] = int32(p)
	}
	for ; p+1 < len(f.order) && f.less(f.order[p+1], s); p++ {
		f.order[p] = f.order[p+1]
		f.pos[f.order[p]] = int32(p)
	}
	f.order[p], f.pos[i] = s, int32(p)
}

// less is the order: by free share, then by index.
func (f *fleet) less(a, b int32) bool {
	sa, sb := f.share[a], f.share[b]
	return sa < sb || sa == sb && a < b
}

// fit returns what the linear tightest-fit scan returns — the fitting
// server with the least (leftover share, index), or -1 — while examining
// only the servers that can win. Let d be size's dominant share and s a
// server's free share.
//
//   - Start. A server that passes FitsIn holds size's dominant component
//     less at most FitTolerance, so s >= d - tol (newFleet defines tol).
//     The scan starts at the first server with s >= d - eps, eps being
//     tol plus the round-off slack delta: no server before it fits.
//   - Stop. A fitting server's leftover is at least s - d: the component
//     that gives s loses at most d of its share to size. Once
//     s - d > bestLeft + delta, every server from there on (s only
//     grows along the order) leaves strictly more than bestLeft, so it
//     can neither win nor tie.
//   - Ties. Among equal leftovers the lower index wins. That is the
//     linear scan's choice: it keeps the first of equal leftovers
//     (strict "<") and breaks on the first perfect fit, and no leftover
//     is below zero (DominantShare is at least 0).
//
// Round-off grows with the magnitudes compared, so the start slack is
// scaled by max(1, d): the preemption baseline does not check a VM
// against the capacity, so d can exceed 1. No free share exceeds
// 1 + tol, which delta already covers. Both bounds assume finite
// shares, that is finite capacities.
func (f *fleet) fit(size resources.Vector) int {
	d := size.DominantShare(f.capacity)
	start := d - f.eps
	if d > 1 {
		start = d - f.eps*d
	}
	lo := sort.Search(len(f.order), func(p int) bool { return f.share[f.order[p]] >= start })
	best, bestLeft := -1, math.Inf(1)
	for _, i := range f.order[lo:] {
		s := f.share[i]
		if s-d > bestLeft+f.delta {
			break
		}
		f.examined++
		if !size.FitsIn(f.free[i]) {
			continue
		}
		if left := f.free[i].Sub(size).DominantShare(f.capacity); left < bestLeft || left == bestLeft && int(i) < best {
			best, bestLeft = int(i), left
		}
	}
	return best
}

package clustersim

import (
	"fmt"
	"math"

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

func peakLowerBound(src *rowSource, serverCap resources.Vector) (int, error) {
	var cur, peak resources.Vector
	var err error
	src.geometry().walk(func(row int32, arrival bool) bool {
		size := src.size(int(row))
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

// sizeFleet is the one fleet-sizing routine: the lower bound, then the
// packing replay from there. Fragmentation can exceed the aggregate
// bound, but not without limit; 4x is a generous safety margin that
// turns a logic error into a diagnosable failure. scans is the number
// of tightestFit calls made, a hardware-independent work count.
func sizeFleet(src *rowSource, serverCap resources.Vector) (n, scans int, err error) {
	lb, err := peakLowerBound(src, serverCap)
	if err != nil {
		return 0, 0, err
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
// tightestFit's strict "<" on ties. The replay on n+1 servers therefore
// equals the replay on n servers up to n's first miss and puts that
// arrival on server n — exactly the state appending produces — and by
// induction the final count is the smallest n with no miss. The premise
// free <= serverCap is kept exact by clamping at each departure: with
// fractional sizes, round-off can leave a server that has emptied an ulp
// above capacity, a replay on more servers then prefers a truly empty
// one, and the two replays part (FuzzSizeFleet's ulp-high-empty-server
// seed is such a trace).
//
// where is the placement column, indexed by trace row, so duplicate VM
// IDs in an imported trace cannot alias one another.
func packFleet(src *rowSource, start, limit int, serverCap resources.Vector) (n, scans int, err error) {
	free := make([]resources.Vector, start)
	for i := range free {
		free[i] = serverCap
	}
	where := make([]int32, src.len())
	for i := range where {
		where[i] = -1
	}
	src.geometry().walk(func(row int32, arrival bool) bool {
		if !arrival {
			// A zero-lifetime VM departs before it arrives and then
			// stays: there is nothing to free yet.
			if sv := where[row]; sv >= 0 {
				free[sv] = free[sv].Add(src.size(int(row))).Min(serverCap)
				where[row] = -1
			}
			return true
		}
		scans++
		size := src.size(int(row))
		best := tightestFit(free, size, serverCap)
		if best < 0 {
			best = len(free)
			free = append(free, serverCap)
		}
		free[best] = free[best].Sub(size)
		where[row] = int32(best)
		return len(free) <= limit
	})
	if len(free) > limit {
		return 0, scans, fmt.Errorf("clustersim: no feasible packing within %d servers", limit)
	}
	return len(free), scans, nil
}

// tightestFit returns the index of the fitting server whose leftover
// dominant share would be smallest, or -1 if none fits.
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

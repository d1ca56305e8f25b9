// The under-pressure placement scan: who hosts a VM when no server has
// surplus capacity for it.
//
// The paper's §5.2 ranking scores EVERY pool server by the
// deflation-aware cosine fitness of its availability vector against the
// demand — O(servers) per pressured arrival, and at cloud scale the
// whole runtime (the 10M-VM run spent ~90% of its wall clock here).
// This file makes the selection sub-linear while staying bit-for-bit
// identical to that full scan, which survives only test-side
// (oracle_test.go) as the differential oracle the descent is held to.
//
// # The bound index
//
// Beside each surplus index the manager maintains a pressure index per
// priority pool: the same treap keyed by boundKey(avail) = |avail|·(1+slack). For non-negative vectors the
// Cauchy–Schwarz inequality gives
//
//	Fitness(D, A) = A·D / max(|D|, 1e-9) <= |A|·|D|/|D| = |A|
//
// so the key upper-bounds any demand's achievable fitness on that
// server — demand-independent, which is what lets one incrementally
// maintained index (refreshed beside the surplus keys under the same
// dirty-flag discipline) serve every arrival. The slack factor absorbs
// float round-off: the computed fitness and the stored |A| each carry
// relative error of a few ulps (~1e-15), so padding the key by 1e-12
// makes "computed fitness never exceeds the stored bound" hold in
// float arithmetic, not just in the reals.
//
// # Best-first branch-and-bound
//
// The scan walks the pool's bound index in descending (key, name)
// order — loosest bound first — through a reusable iterator. Each
// expanded server is first checked
// against the shared feasibility pre-filter (cannotReclaim — the exact
// expressions tryPlace uses, so skipping is provably safe), then
// scored exactly and pushed on a min-heap ordered by candBefore. A
// heaped candidate is yielded only while its fitness STRICTLY exceeds
// the largest bound among unexpanded servers: any unexplored u has
// fitness_u <= bound_u <= maxRemaining < top.fitness, so the top
// precedes u under candBefore — and on fitness ties the strictness
// forces expansion first, preserving the add-index-ascending tie-break.
// By induction the yield sequence is exactly the full scan's sorted
// candidate order, truncated at the first successful placement.
package cluster

import (
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/resources"
)

// boundSlack pads the pressure-index keys so the stored bound dominates
// the computed fitness despite float round-off on both sides; see the
// package comment above. Orders of magnitude above the ~1e-15 relative
// error of a 4-dimensional dot product, and orders below any fitness
// difference the workload can produce.
const boundSlack = 1e-12

// boundKey is the pressure-index key: a demand-independent upper bound
// on any VM's achievable fitness on a server with this availability.
func boundKey(avail resources.Vector) float64 {
	return avail.Norm() * (1 + boundSlack)
}

// pressureLive is the live under-pressure placement: rank the
// pool's servers by the §5.2 deflation-aware fitness and deflate
// residents on the best server that can absorb the newcomer. best,
// when non-nil, is the surplus candidate that already failed and is
// skipped. Routes to the bound-pruned descent, or to the test-side
// oracle's linear scan when one is set — both realizing the identical
// strict candidate order. Records the path and the scan's work in pl
// and, when it places the VM, the domain and server; reports whether it
// did.
func (m *Manager) pressureLive(dc hypervisor.DomainConfig, best *Server, pl *Placement) bool {
	pl.Path = PathPressure
	if m.oracle != nil {
		pl.Domain, pl.Server, pl.Scored = m.oracle.pressure(m, dc, best)
		return pl.Domain != nil
	}
	return m.pressurePruned(dc, best, pl)
}

// pressurePruned is the bound-pruned descent over the VM's pool:
// best-first, trying placement on each yielded candidate in exact
// candBefore order until one absorbs the newcomer or the pool is
// exhausted, and recording a hit's domain and server in pl. Also records
// the scan's work in pl: every indexed server that never had its
// fitness computed — excluded by the bound, the feasibility pre-filter,
// or an earlier candidate succeeding — counts as pruned.
func (m *Manager) pressurePruned(dc hypervisor.DomainConfig, best *Server, pl *Placement) bool {
	ix := m.bounds[m.PartitionOf(dc)]
	if ix == nil || ix.Len() == 0 {
		return false
	}
	eligible, ncRange := ix.Len(), newcomerRange(dc)
	it := &m.pressIter
	it.Reset(ix)
	heap := m.pressHeap[:0]
	scored := 0
	hit := false
	for {
		// The loosest remaining bound; ok is false once every server is
		// expanded.
		name, maxKey, ok := it.Peek()
		// Yield while the heap top STRICTLY beats every unexpanded bound:
		// strictness preserves the gidx tie-break on fitness ties (an
		// unexplored server could tie the top's fitness with a smaller
		// add-index, so ties force expansion first).
		for len(heap) > 0 && (!ok || heap[0].fitness > maxKey) {
			c := heapPopCand(&heap)
			if c.s == best {
				continue // the failed surplus candidate is skipped
			}
			if d := m.tryPlace(c.s, dc, ncRange); d != nil {
				pl.Domain, pl.Server, hit = d, c.s, true
				break
			}
		}
		if hit || !ok {
			break
		}
		it.Next()
		s := m.byName[name]
		if cannotReclaim(s, dc, ncRange) {
			continue // fit-skip: counted as pruned, never scored
		}
		scored++
		heapPushCand(&heap, cand{s, Fitness(dc.Size, s.avail), s.gidx})
	}
	m.pressHeap = heap[:0]
	pl.Scored, pl.Pruned = scored, eligible-scored
	return hit
}

// heapPushCand pushes c onto the candBefore-ordered min-heap (the heap
// top is the candidate that precedes all others). Manual sift — the
// container/heap interface would force an allocation per push through
// its interface{} boundary.
func heapPushCand(h *candList, c cand) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !candBefore((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

// heapPopCand removes and returns the heap top.
func heapPopCand(h *candList) cand {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(s) && candBefore(s[l], s[least]) {
			least = l
		}
		if r < len(s) && candBefore(s[r], s[least]) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}

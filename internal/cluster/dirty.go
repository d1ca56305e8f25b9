// The dirty-flag sync: how the manager's cached placement state follows
// the hosts.
//
// A host's aggregate-change callback only records that its server is
// stale (markDirty). Every query first drains that list and re-derives
// the drained servers' cached aggregates, free and availability vectors
// and index keys (syncDirtyLocked), so between bursts of churn a query
// touches no server at all, and after one it touches exactly the ones
// that changed.
package cluster

import (
	"slices"
	"strings"
)

// markDirty queues s for the next dirty sync. It is what a host's
// aggregate-change callback does, so it only records. The callback runs
// under the host's lock, and not always under the manager's, which is
// why the list has its own leaf lock.
func (m *Manager) markDirty(s *Server) {
	m.dirtyMu.Lock()
	if !s.queued {
		s.queued = true
		m.dirty = append(m.dirty, s)
	}
	m.dirtyMu.Unlock()
}

// drainDirty moves the queued servers into m.drained, sorted by name so
// refresh work — and the float arithmetic of the cluster totals — happens
// in one deterministic order regardless of callback arrival order, and
// returns how many there are. The two slices swap backing arrays, so
// steady-state drains allocate nothing; m.drained is valid until the
// next drain.
func (m *Manager) drainDirty() int {
	m.dirtyMu.Lock()
	m.drained, m.dirty = m.dirty, m.drained[:0]
	for _, s := range m.drained {
		s.queued = false
	}
	m.dirtyMu.Unlock()
	slices.SortFunc(m.drained, func(a, b *Server) int {
		return strings.Compare(a.Host.Name(), b.Host.Name())
	})
	return len(m.drained)
}

// syncDirtyLocked refreshes cached placement state (per-server
// aggregates, free/availability vectors, index keys) for every server
// the hosts marked dirty since the last query, and applies each one's
// aggregate delta to the cluster totals in sorted name order, so the
// totals' float accumulation order is a function of simulation state
// alone. Between bursts of churn it is a no-op.
func (m *Manager) syncDirtyLocked() {
	if m.drainDirty() == 0 {
		return
	}
	for _, s := range m.drained {
		name := s.Host.Name()
		agg := s.Host.Aggregates()
		m.totAllocated = m.totAllocated.Add(agg.Allocated.Sub(s.agg.Allocated))
		s.agg = agg
		total := s.Host.Capacity()
		s.free = total.Sub(agg.Allocated)
		s.freeShare = s.free.DominantShare(total)
		s.avail = availabilityFrom(total, agg)
		key := m.poolKey(s.Partition, s.band)
		if s.revoked {
			// A revoked server stays out of the indexes no matter who
			// marked it dirty; its cached state is still refreshed so the
			// cluster totals stay exact.
			m.indexes[key].Delete(name)
			m.bounds[key].Delete(name)
		} else {
			// The surplus entry carries s.free, the vector its probes
			// test: this is the one place s.free is written.
			m.indexes[key].UpsertFree(name, s.freeShare, s.free)
			m.bounds[key].Upsert(name, boundKey(s.avail))
		}
	}
}

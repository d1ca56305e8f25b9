// The dirty-flag sync: how the manager's cached placement state follows
// the hosts.
//
// A host's aggregate-change callback only records that its server is
// stale (markDirty). Every query first drains that list and re-derives
// the drained servers' cached aggregates, free and availability vectors
// and index keys (syncDirtyLocked), so between bursts of churn a query
// touches no server at all, and after one it touches exactly the ones
// that changed. The drain keeps the order the servers were marked in:
// each refresh writes only its own server's state, and an index answers
// by (key, name) whatever order its entries were upserted in, so no
// query can tell the orders apart.
package cluster

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

// drainDirty moves the queued servers into m.drained, in the order they
// were marked, and returns how many there are. The two slices swap
// backing arrays, so steady-state drains allocate nothing; m.drained is
// valid until the next drain.
func (m *Manager) drainDirty() int {
	m.dirtyMu.Lock()
	m.drained, m.dirty = m.dirty, m.drained[:0]
	for _, s := range m.drained {
		s.queued = false
	}
	m.dirtyMu.Unlock()
	return len(m.drained)
}

// syncDirtyLocked refreshes cached placement state (per-server
// aggregates, free/availability vectors, index keys) for every server
// the hosts marked dirty since the last query. Between bursts of churn
// it is a no-op.
func (m *Manager) syncDirtyLocked() {
	if m.drainDirty() == 0 {
		return
	}
	for _, s := range m.drained {
		name := s.Host.Name()
		agg := s.Host.Aggregates()
		s.agg = agg
		total := s.Host.Capacity()
		s.free = total.Sub(agg.Allocated)
		s.freeShare = s.free.DominantShare(total)
		s.avail = availabilityFrom(total, agg)
		pool := s.Partition
		if s.revoked {
			// A revoked server stays out of the indexes no matter who
			// marked it dirty; its cached state is still refreshed.
			m.indexes[pool].Delete(name)
			m.bounds[pool].Delete(name)
		} else {
			// The surplus entry carries s.free, the vector its probes
			// test: this is the one place s.free is written.
			m.indexes[pool].UpsertFree(name, s.freeShare, s.free)
			m.bounds[pool].Upsert(name, boundKey(s.avail))
		}
	}
}

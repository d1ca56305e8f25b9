// The dirty-flag sync: how the manager's cached placement state follows
// the hosts.
//
// The manager is its hosts' only writer, so it knows which servers it
// changed: every method that writes a host marks the server
// (markDirty) beside the write itself. Every
// query, and every policy pass over a server its method has just
// written, first re-derives the marked servers' cached aggregates, free
// and availability vectors and index keys (syncDirty), so between
// bursts of churn a query touches no server at all, and after one it
// touches exactly the ones that changed. The sync is the only reader of
// Host.Aggregates. The sync keeps the order the
// servers were marked in: each refresh writes only its own server's
// state, and an index answers by (key, name) whatever order its entries
// were upserted in, so no query can tell the orders apart.
package cluster

// markDirty queues s for the next dirty sync, once however often it is
// marked before then.
func (m *Manager) markDirty(s *Server) {
	if !s.queued {
		s.queued = true
		m.dirty = append(m.dirty, s)
	}
}

// resyncAll, when set, marks every server before each sync, so every
// query reads state re-derived from the hosts whatever the manager
// marked: the full-invalidation oracle its own marks are held to. It is
// set only by the package's tests (export_test.go); in every shipped
// build it is false.
var resyncAll bool

// syncDirty refreshes cached placement state (per-server
// aggregates, free/availability vectors, index keys) for every server
// the manager marked since the last sync, in mark order, and empties
// the list. Between bursts of churn it is a no-op.
func (m *Manager) syncDirty() {
	if resyncAll {
		for _, s := range m.servers {
			m.markDirty(s)
		}
	}
	for _, s := range m.dirty {
		s.queued = false
		name := s.Host.Name()
		agg := s.Host.Aggregates()
		s.agg = agg
		total := s.Host.Capacity()
		s.free = total.Sub(agg.Allocated)
		s.freeShare = s.free.DominantShare(total)
		s.avail = availabilityFrom(total, agg)
		pool := s.Partition
		if s.revoked {
			// A revoked server stays out of the indexes no matter what
			// marked it; its cached state is still refreshed.
			m.indexes[pool].Delete(name)
			m.bounds[pool].Delete(name)
		} else {
			// The surplus entry carries s.free, the vector its probes
			// test: this is the one place s.free is written.
			m.indexes[pool].UpsertFree(name, s.freeShare, s.free)
			m.bounds[pool].Upsert(name, boundKey(s.avail))
		}
	}
	m.dirty = m.dirty[:0]
}

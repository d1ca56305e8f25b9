package cluster

import (
	"fmt"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/resources"
)

// The one-VM forms of the manager's operations and the read probes the
// tests drive and audit it with. The engine places, removes and revokes
// in batches (PlaceVMs, RemoveVMs, RevokeServers) and adds servers by
// spec; each helper here is the batch or spec form with one element.

// AddServer registers a new physical server. When partitioning is
// enabled, partition assigns its pool; pass 0..PriorityLevels-1.
func (m *Manager) AddServer(name string, capacity resources.Vector, partition int) (*Server, error) {
	return m.AddServerSpec(ServerSpec{Name: name, Capacity: capacity, Partition: partition})
}

// PlaceVM places one VM as a one-element PlaceVMs batch and returns the
// running domain and its server, or the placement's error.
func (m *Manager) PlaceVM(dc hypervisor.DomainConfig) (hypervisor.Domain, *Server, error) {
	pl := m.PlaceVMs([]hypervisor.DomainConfig{dc}, nil)[0]
	return pl.Domain, pl.Server, pl.Err
}

// FitsWithoutDeflation reports whether any server in the cluster
// (regardless of priority pool) can host size with no deflation. With
// the capacity indexes the check is O(pools × log S) instead of
// a full scan. Batch placements report the same signal per VM through
// Placement.NeedsReclaim.
func (m *Manager) FitsWithoutDeflation(size resources.Vector) bool {
	m.syncDirty()
	return m.anyFits(size)
}

// LookupVM finds a placed VM's domain and server.
func (m *Manager) LookupVM(name string) (hypervisor.Domain, *Server, error) {
	s, ok := m.placements[name]
	if !ok {
		return hypervisor.Domain{}, nil, fmt.Errorf("%w: VM %s", ErrNotFound, name)
	}
	d, err := s.Host.Lookup(name)
	if err != nil {
		return hypervisor.Domain{}, nil, err
	}
	return d, s, nil
}

// RemoveVM stops and removes a VM, then reinflates the survivors on its
// server with the freed resources (R = -R_free, Section 5.1.3).
func (m *Manager) RemoveVM(name string) error {
	return m.RemoveVMs(name)
}

// Revoked reports whether the server is currently revoked.
func (s *Server) Revoked() bool { return s.revoked }

// RevokeServer revokes one server; see RevokeServers.
func (m *Manager) RevokeServer(name string) (Evacuation, error) {
	return m.RevokeServers(name)
}

// Stats summarises the cluster's resource state.
type Stats struct {
	Servers int
	// Revoked counts registered servers currently out of service;
	// Capacity covers only the in-service remainder.
	Revoked   int
	VMs       int
	Capacity  resources.Vector
	Committed resources.Vector
	Allocated resources.Vector
	// Overcommit is committed/capacity - 1 on the dominant dimension
	// (0 when under-committed).
	Overcommit float64
}

// Stats returns the current cluster-wide statistics after a dirty sync,
// folded over the servers' synced aggregates in add order.
func (m *Manager) Stats() Stats {
	m.syncDirty()
	st := Stats{Servers: len(m.servers), VMs: len(m.placements)}
	for _, s := range m.servers {
		st.Committed = st.Committed.Add(s.agg.Committed)
		st.Allocated = st.Allocated.Add(s.agg.Allocated)
		if s.revoked {
			st.Revoked++
		} else {
			st.Capacity = st.Capacity.Add(s.Host.Capacity())
		}
	}
	oc := st.Committed.DominantShare(st.Capacity)
	if oc > 1 {
		st.Overcommit = oc - 1
	}
	return st
}

// Transient-server capacity dynamics: revocation and restoration of
// managed servers, with deflation-first evacuation.
//
// The paper's premise is that the fleet itself is transient — the
// provider can unilaterally take a server away. The manager reacts in
// the order the paper argues for:
//
//  1. Deflate first. A revoked server's residents are relocated onto
//     survivors, deflating those survivors through the ordinary
//     placement policy passes.
//  2. Evacuate what deflation cannot hold. Displaced VMs form one
//     relocation batch that flows through the same PlaceVMs placement
//     as trace arrivals, one VM at a time in evacuation order.
//  3. Kill only as a last resort. A displaced VM whose relocation fails
//     (no server can host it even after maximal deflation) is reported
//     in the Evacuation outcome; deciding what that means (a shock
//     kill, a queued retry) is the caller's policy.
//
// Determinism invariants:
//
//   - Evacuation batch ordering: displaced VMs enter the relocation
//     batch in (input server order, then domain name order). The batch
//     is placed in that order.
//   - A revoked server keeps its Server identity, its add-order gidx
//     and its pool membership; it is only removed from the
//     capacity indexes and skipped by every candidate scan, so the
//     (fitness, add-index) and (free share, name) total orders over the
//     remaining servers are unchanged.
package cluster

import (
	"errors"
	"fmt"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/resources"
)

// ErrRevoked reports an operation on a server in the wrong revocation
// state: revoking an already-revoked server, or restoring one that is
// in service.
var ErrRevoked = errors.New("cluster: server revocation state")

// Evacuation reports the outcome of a capacity shock: which VMs were
// displaced and where each one landed. Placements[i] is VMs[i]'s
// relocation outcome — a non-nil Err means no server could host the VM
// even after maximal deflation, and the VM is gone.
type Evacuation struct {
	// VMs holds the displaced VMs' configurations (nominal size,
	// priority, floor) in evacuation order.
	VMs []hypervisor.DomainConfig
	// Placements is the relocation outcome per displaced VM, in the
	// same order.
	Placements []Placement
}

// RevokeServers removes a batch of servers from service at one instant —
// the provider revoked them — and relocates every resident VM through
// the batch placement engine. Residents are displaced in (input server
// order, domain name order), torn down from their revoked hosts, and
// then placed as one relocation batch exactly as if they were
// simultaneous arrivals: survivors deflate to make room, and VMs that
// cannot be placed anywhere are reported as killed. The revoked servers
// stay registered (retaining their add-order identity for the
// placement total orders) but leave the capacity indexes and every
// candidate scan until RestoreServer returns them.
//
// Relocation failures are not admission-control rejections: a caller
// folding admission failures folds them over its arrivals' placements
// only.
func (m *Manager) RevokeServers(names ...string) (Evacuation, error) {
	for i, name := range names {
		s, ok := m.byName[name]
		if !ok {
			return Evacuation{}, fmt.Errorf("%w: server %s", ErrNotFound, name)
		}
		if s.revoked {
			return Evacuation{}, fmt.Errorf("%w: %s already revoked", ErrRevoked, name)
		}
		for _, prev := range names[:i] {
			if prev == name {
				return Evacuation{}, fmt.Errorf("%w: server %s listed twice", ErrExists, name)
			}
		}
	}
	m.evacDCs = m.evacDCs[:0]
	for _, name := range names {
		s := m.byName[name]
		for _, d := range s.Host.Domains() { // name order
			if err := m.displace(s, d); err != nil {
				return Evacuation{}, err
			}
		}
		s.revoked = true
		m.indexes[s.Partition].Delete(name)
		m.bounds[s.Partition].Delete(name)
	}
	return m.evacuate(), nil
}

// RestoreServer returns a revoked server to service at its capacity. The server re-enters its pool's capacity index on the next
// dirty sync, making its capacity visible to subsequent
// placements; nothing is migrated back proactively.
func (m *Manager) RestoreServer(name string) error {
	s, ok := m.byName[name]
	if !ok {
		return fmt.Errorf("%w: server %s", ErrNotFound, name)
	}
	if !s.revoked {
		return fmt.Errorf("%w: %s not revoked", ErrRevoked, name)
	}
	s.revoked = false
	m.markDirty(s)
	return nil
}

// ResizeServer is not simulated: no shock schedule resizes a server in
// place, so it always fails. It is kept so that existing callers (the
// bench package's replay, for a shock kind no generator emits) still
// build.
func (m *Manager) ResizeServer(name string, capacity resources.Vector) (Evacuation, error) {
	return Evacuation{}, fmt.Errorf("cluster: resize of %s is not simulated", name)
}

// displace tears one resident down from its (about to be revoked)
// server and queues its configuration, live offered load
// included (Domain.Config), for the relocation batch.
func (m *Manager) displace(s *Server, d *hypervisor.Domain) error {
	dc := d.Config()
	if err := m.teardown(s, d); err != nil {
		return err
	}
	m.evacDCs = append(m.evacDCs, dc)
	return nil
}

// evacuate relocates the queued displaced VMs as one batch,
// placed in evacuation order, and assembles the Evacuation outcome.
func (m *Manager) evacuate() Evacuation {
	var out Evacuation
	if len(m.evacDCs) == 0 {
		return out
	}
	out.VMs = append([]hypervisor.DomainConfig(nil), m.evacDCs...)
	m.placeAll(m.evacDCs)
	out.Placements = append([]Placement(nil), m.results[:len(out.VMs)]...)
	return out
}

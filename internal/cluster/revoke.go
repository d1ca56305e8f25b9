// Transient-server capacity dynamics: revocation, restoration and
// in-place resize of managed servers, with deflation-first evacuation.
//
// The paper's premise is that the fleet itself is transient — the
// provider can unilaterally take a server away or shrink it. The
// manager reacts in the order the paper argues for:
//
//  1. Deflate first. A shrunk server deflates its own residents toward
//     their floors before anything is displaced; a revoked server's
//     residents are relocated onto survivors, deflating those survivors
//     through the ordinary placement policy passes.
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
//     batch in (input server order, then domain name order) for
//     revocations, and in (priority ascending, name ascending) victim
//     order for resize displacement. The batch is placed in that order.
//   - A revoked server keeps its Server identity, its add-order gidx
//     and its pool membership; it is only removed from the
//     capacity indexes and skipped by every candidate scan, so the
//     (fitness, add-index) and (free share, name) total orders over the
//     remaining servers are unchanged.
//   - Resize-under-dirty-flag: Host.SetCapacity invalidates the host's
//     aggregate cache like any other mutation, so the server's index
//     keys and cached free/availability vectors are re-derived by the
//     ordinary dirty sync — no bespoke refresh path.
package cluster

import (
	"errors"
	"fmt"
	"sort"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// ErrRevoked reports an operation on a server in the wrong revocation
// state: revoking or resizing an already-revoked server, or restoring
// one that is in service.
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
	m.mu.Lock()
	defer m.mu.Unlock()
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
			dc := d.Config()
			// Carry the live offered load (DomainConfig holds only the
			// admission-time seed) so the VM re-lands under its current
			// load, visible to latency-aware policies at the new server.
			dc.Load = d.OfferedLoad()
			if err := m.displaceLocked(s, d, dc); err != nil {
				return Evacuation{}, err
			}
		}
		s.revoked = true
		m.indexes[s.Partition].Delete(name)
		m.bounds[s.Partition].Delete(name)
	}
	return m.evacuateLocked(), nil
}

// RestoreServer returns a revoked server to service at its current
// capacity. The server re-enters its pool's capacity index on the next
// dirty sync, making its capacity visible to subsequent
// placements; nothing is migrated back proactively.
func (m *Manager) RestoreServer(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
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

// ResizeServer changes a server's physical capacity in place. Growing
// (or restoring) capacity hands the slack straight back to deflated
// residents via a reinflation pass. Shrinking applies the
// deflation-first discipline: residents deflate toward their floors,
// and only when even maximal deflation cannot fit under the new
// capacity are victims displaced — lowest priority first, name
// tie-broken — and relocated through the batch placement engine like a
// revocation's evacuees.
func (m *Manager) ResizeServer(name string, capacity resources.Vector) (Evacuation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.byName[name]
	if !ok {
		return Evacuation{}, fmt.Errorf("%w: server %s", ErrNotFound, name)
	}
	if s.revoked {
		return Evacuation{}, fmt.Errorf("%w: %s is revoked", ErrRevoked, name)
	}
	old := s.Host.Capacity()
	if capacity == old {
		return Evacuation{}, nil
	}
	if err := s.Host.SetCapacity(capacity); err != nil {
		return Evacuation{}, err
	}
	// maxCap stays a component-wise upper bound over every capacity the
	// index has seen: after a shrink it over-estimates, which only
	// loosens the index scans' lower bound (more entries inspected, same
	// answer) — correctness never depends on it being tight.
	m.maxCap[s.Partition] = m.maxCap[s.Partition].Max(capacity)

	if s.Host.Allocated().FitsIn(capacity) {
		// Grow / slack restore: run the freed capacity back into the
		// residents ("run the proportional deflation backwards").
		return Evacuation{}, reinflate(s, &m.cfg)
	}
	m.evacDCs = m.evacDCs[:0]
	if err := m.displaceForShrinkLocked(s, capacity); err != nil {
		return Evacuation{}, err
	}
	if err := m.deflateToCapacityLocked(s, capacity); err != nil {
		return Evacuation{}, err
	}
	return m.evacuateLocked(), nil
}

// displaceLocked tears one resident down from its (about to be revoked
// or shrunk) server and queues it for the relocation batch.
func (m *Manager) displaceLocked(s *Server, d *hypervisor.Domain, dc hypervisor.DomainConfig) error {
	if err := m.teardownLocked(s, d); err != nil {
		return err
	}
	m.evacDCs = append(m.evacDCs, dc)
	return nil
}

// shrinkVictim is one displacement candidate of a resize: minNeed is
// the least capacity the VM can be squeezed to in place (its floor when
// deflatable, its full allocation otherwise).
type shrinkVictim struct {
	d       *hypervisor.Domain
	minNeed resources.Vector
	prio    float64
	name    string
}

// displaceForShrinkLocked displaces just enough residents that the
// remainder fits the shrunk capacity at maximal deflation. Victims go
// lowest priority first (name tie-broken) — the same order the
// preemption literature reclaims in — so the displaced set is a
// deterministic function of the server's population.
func (m *Manager) displaceForShrinkLocked(s *Server, capacity resources.Vector) error {
	var total resources.Vector
	var victims []shrinkVictim
	for _, d := range s.Host.Domains() { // name order: deterministic sum
		if d.State() != hypervisor.Running {
			continue
		}
		minNeed := d.Allocation()
		if d.Deflatable() {
			minNeed = d.Floor()
		}
		total = total.Add(minNeed)
		victims = append(victims, shrinkVictim{d: d, minNeed: minNeed, prio: d.Priority(), name: d.Name()})
	}
	if total.FitsIn(capacity) {
		return nil
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].prio != victims[j].prio {
			return victims[i].prio < victims[j].prio
		}
		return victims[i].name < victims[j].name
	})
	for _, v := range victims {
		if total.FitsIn(capacity) {
			break
		}
		dc := v.d.Config()
		dc.Load = v.d.OfferedLoad() // re-land under the live load
		if err := m.displaceLocked(s, v.d, dc); err != nil {
			return err
		}
		total = total.Sub(v.minNeed)
	}
	return nil
}

// deflateToCapacityLocked deflates the server's surviving residents so
// the allocation fits the shrunk capacity: the ordinary policy pass
// frees (allocated - capacity), and when even its best effort falls
// short (quantised policies) every deflatable resident is pinned to its
// floor — which the displacement pass guaranteed to fit.
func (m *Manager) deflateToCapacityLocked(s *Server, capacity resources.Vector) error {
	need := s.Host.Allocated().Sub(capacity).ClampNonNegative()
	if need.IsZero() {
		return nil
	}
	sc := &s.scratch
	sc.vms, sc.doms = sc.vms[:0], sc.doms[:0]
	sc.vms, sc.doms = s.Host.AppendDeflatableView(sc.vms, sc.doms)
	res, err := m.cfg.Policy.TargetsInto(sc.vms, need, &sc.ps)
	if err != nil && !errors.Is(err, policy.ErrInsufficient) {
		return err
	}
	for i := range sc.doms {
		target := res.Targets[i]
		if err != nil {
			target = sc.doms[i].Floor()
		}
		if aerr := applyAndNotify(s, &m.cfg, sc.doms[i], sc.vms[i].Current, target); aerr != nil {
			return aerr
		}
	}
	return nil
}

// evacuateLocked relocates the queued displaced VMs as one batch,
// placed in evacuation order, and assembles the Evacuation outcome.
func (m *Manager) evacuateLocked() Evacuation {
	var out Evacuation
	if len(m.evacDCs) == 0 {
		return out
	}
	out.VMs = append([]hypervisor.DomainConfig(nil), m.evacDCs...)
	m.placeAllLocked(m.evacDCs)
	out.Placements = append([]Placement(nil), m.results[:len(out.VMs)]...)
	return out
}

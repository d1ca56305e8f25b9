package cluster

import (
	"cmp"
	"slices"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/resources"
)

// The placement oracles: the brute-force scans the capacity indexes and
// the bound-pruned pressure descent replaced, kept here as the
// references the differential suites hold the shipped paths to. A
// Manager runs one when its oracle field is set — by newOracleManager
// inside the package, through UseOracle (export_test.go) for whole
// engine runs.
//
//   - "reference" answers all three queries by linear scans over every
//     server, reading each host's aggregates fresh rather than the
//     manager's cached placement state.
//   - "fullscan" keeps the indexed surplus and existence queries and
//     replaces only the pruned descent with the linear pressure scan
//     over the cached availability vectors.
var oracles = map[string]placementOracle{
	"reference": scanOracle{fresh: true},
	"fullscan":  scanOracle{},
}

// newOracleManager builds a manager whose placement queries the named
// oracle answers; "" builds a shipped, indexed one.
func newOracleManager(cfg Config, oracle string) *Manager {
	m := NewManager(cfg)
	m.oracle = oracles[oracle]
	return m
}

// scanOracle is both oracles: fresh selects the reference one.
type scanOracle struct{ fresh bool }

// surplus is the brute-force tightest fit: the smallest (dominant free
// share, name) among the pool's servers whose free vector fits.
func (o scanOracle) surplus(m *Manager, pool int, size resources.Vector) *Server {
	if !o.fresh {
		return m.surplusIndexed(pool, size)
	}
	var best *Server
	bestKey := 0.0
	for _, s := range m.servers {
		if s.revoked || (pool >= 0 && s.Partition != pool) {
			continue
		}
		total := s.Host.Capacity()
		free := total.Sub(s.Host.Aggregates().Allocated)
		if !size.FitsIn(free) {
			continue
		}
		key := free.DominantShare(total)
		if best == nil || key < bestKey || (key == bestKey && s.Host.Name() < best.Host.Name()) {
			best, bestKey = s, key
		}
	}
	return best
}

// anyFits is the brute-force existence scan over every in-service
// server, whatever its pool.
func (o scanOracle) anyFits(m *Manager, size resources.Vector) bool {
	if !o.fresh {
		return m.anyFitsIndexed(size)
	}
	for _, s := range m.servers {
		if !s.revoked && size.FitsIn(s.Host.Capacity().Sub(s.Host.Aggregates().Allocated)) {
			return true
		}
	}
	return false
}

// pressure is the linear under-pressure ranking: score every pool server
// (from cached availability, or fresh reads for the reference oracle),
// argmax-first with the sort deferred until the argmax cannot absorb the
// VM, both in the oracle's own order (oracleOrder). The full scan scores
// everyone and prunes no one.
func (o scanOracle) pressure(m *Manager, dc hypervisor.DomainConfig, best *Server) (*hypervisor.Domain, *Server, int) {
	pool := m.PartitionOf(dc)
	var cands []cand
	for _, s := range m.servers {
		if s.revoked || (pool >= 0 && s.Partition != pool) {
			continue
		}
		avail := s.avail
		if o.fresh {
			avail = availability(s)
		}
		cands = append(cands, cand{s, Fitness(dc.Size, avail), s.gidx})
	}

	ncRange := newcomerRange(dc)
	first := -1
	for i := range cands {
		if first < 0 || oracleOrder(cands[i], cands[first]) < 0 {
			first = i
		}
	}
	if first < 0 {
		return nil, nil, 0
	}
	if c := cands[first]; c.s != best {
		if d := m.tryPlace(c.s, dc, ncRange); d != nil {
			return d, c.s, len(cands)
		}
	}
	slices.SortFunc(cands, oracleOrder)
	for rank, c := range cands {
		if c.s == best || rank == 0 {
			continue // already tried above (argmax == rank 0)
		}
		if d := m.tryPlace(c.s, dc, ncRange); d != nil {
			return d, c.s, len(cands)
		}
	}
	return nil, nil, len(cands)
}

// availability is the availability vector from the host's aggregates
// as they stand now, not from the manager's cached copy.
func availability(s *Server) resources.Vector {
	return availabilityFrom(s.Host.Capacity(), s.Host.Aggregates())
}

// oracleOrder is the oracles' pressure ranking, written apart from the
// shipped candBefore so that a change to the descent's order shows as a
// divergence: fitness descending, then the server's add order
// (Server.gidx) ascending.
func oracleOrder(a, b cand) int {
	if c := cmp.Compare(b.fitness, a.fitness); c != 0 {
		return c
	}
	return cmp.Compare(a.s.gidx, b.s.gidx)
}

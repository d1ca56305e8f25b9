// Capacity-shock traces: the transient-server side of the simulation.
//
// The paper's premise is that the servers hosting deflatable VMs are
// themselves transient — the provider can unilaterally revoke a server
// or shrink its capacity, and restore it later. This file provides the
// shock-schedule generators the cluster simulator replays against the
// workload trace, modelled on the revocation processes of the related
// transient-computing literature: memoryless per-server revocations
// ("Portfolio-driven Resource Management for Transient Cloud Servers",
// Sharma et al.), temporally constrained revocation windows ("Modeling
// The Temporally Constrained Preemptions of Transient Cloud VMs",
// Kadupitiya et al.), and spatially correlated rack-sized shocks.
//
// Generation is a pure function of (ShockConfig, nServers): the same
// inputs always yield the same schedule, so differential suites can
// replay one shock trace against every engine configuration and demand
// bit-for-bit identical results.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// ShockKind types one capacity-shock event.
type ShockKind int

const (
	// ShockRevoke removes a server from service: its VMs must be
	// evacuated (deflation mode) or die (preemption baseline).
	ShockRevoke ShockKind = iota
	// ShockRestore returns a previously revoked server to service.
	ShockRestore
	// ShockResize shrinks or restores a server's capacity in place to
	// Scale times its base capacity; resident VMs deflate (and, if even
	// maximal deflation cannot fit, are evacuated) rather than die.
	ShockResize
)

// String names the kind for logs and test failure messages.
func (k ShockKind) String() string {
	switch k {
	case ShockRevoke:
		return "revoke"
	case ShockRestore:
		return "restore"
	case ShockResize:
		return "resize"
	default:
		return fmt.Sprintf("ShockKind(%d)", int(k))
	}
}

// CapacityShock is one scheduled capacity event against one server.
type CapacityShock struct {
	// At is the event time in seconds from trace start.
	At float64
	// Kind selects revoke, restore or resize.
	Kind ShockKind
	// Server is the target server's index in provisioning order. Shocks
	// addressing servers beyond a run's provisioned count are ignored.
	Server int
	// Scale is the capacity fraction for ShockResize (e.g. 0.5 shrinks
	// the server to half its base capacity; 1.0 restores it). Unused for
	// revoke/restore.
	Scale float64
}

// ShockScenario names a shock-schedule shape.
type ShockScenario string

const (
	// ShockNone generates no shocks.
	ShockNone ShockScenario = "none"
	// ShockPoisson revokes each server independently by a homogeneous
	// Poisson process with exponential outage durations — the memoryless
	// spot-market model.
	ShockPoisson ShockScenario = "poisson"
	// ShockDiurnal constrains revocations to a daily peak-demand window
	// (10:00-16:00), the temporally constrained preemption pattern:
	// providers reclaim transient capacity when paying demand peaks.
	ShockDiurnal ShockScenario = "diurnal"
	// ShockRack revokes contiguous rack-sized server groups together —
	// the spatially correlated failure/reclamation mode a per-server
	// Poisson model cannot produce.
	ShockRack ShockScenario = "rack"
)

// ShockScenarios lists the scenario kinds in canonical order.
func ShockScenarios() []ShockScenario {
	return []ShockScenario{ShockNone, ShockPoisson, ShockDiurnal, ShockRack}
}

// ParseShockScenario validates a shock-scenario name.
func ParseShockScenario(s string) (ShockScenario, error) {
	for _, k := range ShockScenarios() {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("trace: unknown shock scenario %q (want none, poisson, diurnal or rack)", s)
}

// Diurnal revocation window: revocations are admitted only between
// these day-relative offsets (the provider's daily demand peak).
const (
	diurnalWindowStart = 10 * 3600.0
	diurnalWindowLen   = 6 * 3600.0
)

// ShockConfig parameterises GenerateShocks.
type ShockConfig struct {
	// Kind selects the schedule shape.
	Kind ShockScenario
	// Duration is the horizon in seconds; no revocation starts after it.
	Duration float64
	// RatePerDay is the expected number of revocations per server per
	// day (default 0.5).
	RatePerDay float64
	// OutageMean is the mean outage duration in seconds, drawn
	// exponentially with a 60 s floor (default 2 h).
	OutageMean float64
	// RackSize is the correlated group size for ShockRack (default 8).
	RackSize int
	// MaxOutFraction caps the fraction of servers simultaneously
	// revoked; candidate revocations that would exceed it are dropped
	// (default 0.5, minimum one server).
	MaxOutFraction float64
	// Seed drives the schedule's RNG.
	Seed int64
}

// MaxOutServers converts MaxOutFraction into the simultaneous-revocation
// cap for a fleet of nServers (minimum one). The epsilon absorbs float
// representation error so an exactly-at-cap fraction admits the full
// count: 0.3 of 10 servers caps at 3, not int(2.999...) = 2.
func (c ShockConfig) MaxOutServers(nServers int) int {
	c.applyDefaults()
	maxOut := int(c.MaxOutFraction*float64(nServers) + 1e-9)
	if maxOut < 1 {
		maxOut = 1
	}
	return maxOut
}

// effectiveRackSize is the correlated group size rack shocks actually
// use for a fleet of nServers: RackSize clamped to the fleet and to the
// MaxOutServers cap. Without the cap clamp a rack wider than the cap
// starves its tail — the admission sweep visits same-instant candidates
// in server order, so servers past the cap inside an oversized rack
// would never be revoked.
func (c ShockConfig) effectiveRackSize(nServers int) int {
	c.applyDefaults()
	rack := c.RackSize
	if rack > nServers {
		rack = nServers
	}
	if maxOut := c.MaxOutServers(nServers); rack > maxOut {
		rack = maxOut
	}
	return rack
}

func (c *ShockConfig) applyDefaults() {
	if c.RatePerDay <= 0 {
		c.RatePerDay = 0.5
	}
	if c.OutageMean <= 0 {
		c.OutageMean = 2 * 3600
	}
	if c.RackSize <= 0 {
		c.RackSize = 8
	}
	if c.MaxOutFraction <= 0 || c.MaxOutFraction > 1 {
		c.MaxOutFraction = 0.5
	}
}

// outage is one candidate revoke/restore interval for one server.
type outage struct {
	start, end float64
	server     int
}

// minOutageSeconds floors every outage duration so a revoke and its
// restore can never collapse onto the same instant.
const minOutageSeconds = 60.0

// GenerateShocks builds the deterministic shock schedule for a cluster
// of nServers. The returned slice is sorted by (At, Server, Kind); ties
// between a revocation and a restoration at the same instant are
// resolved by the simulator's event-kind ordering (restorations first,
// so a restore-then-re-revoke pair of back-to-back outages replays
// faithfully and returning capacity is visible to same-instant
// evacuations).
// A chronological admission sweep enforces MaxOutFraction and
// non-overlap per server, so a schedule never revokes a server that is
// already out and never takes out more than the configured fraction of
// the fleet at once.
func GenerateShocks(cfg ShockConfig, nServers int) []CapacityShock {
	cfg.applyDefaults()
	if cfg.Kind == "" || cfg.Kind == ShockNone || nServers <= 0 || cfg.Duration <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var cands []outage
	switch cfg.Kind {
	case ShockPoisson:
		cands = poissonOutages(rng, cfg, nServers)
	case ShockDiurnal:
		cands = diurnalOutages(rng, cfg, nServers)
	case ShockRack:
		cands = rackOutages(rng, cfg, nServers)
	}
	return admitOutages(cands, cfg, nServers)
}

// drawOutage samples one outage duration (exponential, floored).
func drawOutage(rng *rand.Rand, cfg ShockConfig) float64 {
	return math.Max(minOutageSeconds, rng.ExpFloat64()*cfg.OutageMean)
}

// poissonOutages draws each server's revocation timeline independently:
// exponential gaps at RatePerDay, exponential outages. Servers are
// visited in index order off one seeded RNG, so the candidate list is a
// pure function of the config.
func poissonOutages(rng *rand.Rand, cfg ShockConfig, nServers int) []outage {
	gapMean := 86400 / cfg.RatePerDay
	var out []outage
	for s := 0; s < nServers; s++ {
		t := rng.ExpFloat64() * gapMean
		for t < cfg.Duration {
			end := t + drawOutage(rng, cfg)
			out = append(out, outage{start: t, end: end, server: s})
			t = end + rng.ExpFloat64()*gapMean
		}
	}
	return out
}

// diurnalOutages is poissonOutages thinned to the daily revocation
// window: candidate times are drawn at the boosted in-window rate and
// kept only when they fall inside [10:00, 16:00) of their day, so the
// per-day expectation still matches RatePerDay.
func diurnalOutages(rng *rand.Rand, cfg ShockConfig, nServers int) []outage {
	gapMean := diurnalWindowLen / cfg.RatePerDay
	var out []outage
	for s := 0; s < nServers; s++ {
		t := rng.ExpFloat64() * gapMean
		for t < cfg.Duration {
			dayOff := math.Mod(t, 86400)
			if dayOff >= diurnalWindowStart && dayOff < diurnalWindowStart+diurnalWindowLen {
				end := t + drawOutage(rng, cfg)
				out = append(out, outage{start: t, end: end, server: s})
				t = end + rng.ExpFloat64()*gapMean
				continue
			}
			t += rng.ExpFloat64() * gapMean
		}
	}
	return out
}

// rackOutages draws cluster-level shock times at the rate that keeps
// each server's individual revocation expectation at RatePerDay, and
// takes out one whole contiguous rack of RackSize servers per shock,
// restored together.
func rackOutages(rng *rand.Rand, cfg ShockConfig, nServers int) []outage {
	// The rack clamps to the MaxOutServers cap as well as the fleet: an
	// oversized rack would otherwise have its tail servers dropped by the
	// admission sweep on every shock (same-instant candidates admit in
	// server order), starving them of revocations entirely.
	rack := cfg.effectiveRackSize(nServers)
	nRacks := (nServers + rack - 1) / rack
	// Each shock revokes `rack` servers, so the cluster-level rate that
	// keeps the per-server expectation at RatePerDay is
	// RatePerDay*nServers/rack per day.
	gapMean := 86400 * float64(rack) / (cfg.RatePerDay * float64(nServers))
	var out []outage
	t := rng.ExpFloat64() * gapMean
	for t < cfg.Duration {
		g := rng.Intn(nRacks)
		end := t + drawOutage(rng, cfg)
		for s := g * rack; s < (g+1)*rack && s < nServers; s++ {
			out = append(out, outage{start: t, end: end, server: s})
		}
		t += rng.ExpFloat64() * gapMean
	}
	return out
}

// admitOutages sweeps the candidate intervals chronologically, dropping
// any that would overlap an existing outage of the same server or push
// the simultaneously-revoked count past MaxOutFraction, and emits the
// surviving revoke/restore pairs sorted by (At, Server, Kind).
func admitOutages(cands []outage, cfg ShockConfig, nServers int) []CapacityShock {
	if len(cands) == 0 {
		return nil
	}
	maxOut := cfg.MaxOutServers(nServers)
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].start != cands[j].start {
			return cands[i].start < cands[j].start
		}
		return cands[i].server < cands[j].server
	})
	activeEnd := make(map[int]float64) // server -> restore time
	var shocks []CapacityShock
	for _, c := range cands {
		// Release every outage that ended by this candidate's start.
		for s, end := range activeEnd {
			if end <= c.start {
				delete(activeEnd, s)
			}
		}
		if _, busy := activeEnd[c.server]; busy || len(activeEnd) >= maxOut {
			continue
		}
		activeEnd[c.server] = c.end
		shocks = append(shocks,
			CapacityShock{At: c.start, Kind: ShockRevoke, Server: c.server},
			CapacityShock{At: c.end, Kind: ShockRestore, Server: c.server})
	}
	sort.Slice(shocks, func(i, j int) bool {
		a, b := shocks[i], shocks[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Server != b.Server {
			return a.Server < b.Server
		}
		return a.Kind < b.Kind
	})
	return shocks
}

// Package risk turns a capacity-shock configuration into an analytic
// per-server revocation-hazard model — the forecasting layer of the
// portfolio-driven transient-server literature ("Portfolio-driven
// Resource Management for Transient Cloud Servers", Sharma et al.;
// "Modeling The Temporally Constrained Preemptions of Transient Cloud
// VMs", Kadupitiya et al.).
//
// The model is derived from exactly the trace.ShockConfig parameters
// the schedule generators run with, so it is a pure function of config:
// deterministic, free of any fitted state, and differential-testable
// against the empirical revocation mass of trace.GenerateShocks. The
// cluster manager reads it for two decisions — how much evacuation
// headroom to reserve at admission (expected simultaneously-revoked
// capacity), and which servers high-priority VMs should avoid (hazard
// bands).
//
// Derivation. Every generator draws candidate revocations for a server
// only while the server is up, then holds it out for an outage with
// dead-time E[out]; the long-run revocation rate is therefore the
// renewal rate
//
//	steady_s = 1 / (1/raw_s + E[out])
//
// where raw_s is the up-time candidate rate (RatePerDay·scale_s per day
// for poisson; the rack-weighted share of the cluster shock rate for
// rack shocks) and E[out] is the floored-exponential outage mean,
// MinOutage + OutageMean·exp(-MinOutage/OutageMean). Diurnal shocks
// renew in *window time* — candidates only accept inside the daily
// window, and an outage consumes window seconds only where it overlaps
// the window — so the window-time renewal cycle is gm + E[W], with gm
// the candidate gap mean and E[W] the expected window overlap of one
// outage (start uniform over the window, exponential length μ:
// E[W] = μ − (μ²/L)(1−e^{−L/μ})). Diurnal hazard is zero outside the
// window and concentrates inside it, so forecast mass integrates the
// window overlap. The model deliberately ignores the MaxOutFraction
// admission cap: when the cap binds, forecasts are upper bounds — the
// conservative direction for headroom reservation.
package risk

import (
	"math"

	"vmdeflate/internal/trace"
)

// Model is the analytic revocation-hazard model for one fleet.
type Model struct {
	cfg    trace.ShockConfig
	n      int
	steady []float64 // per-server long-run revocation rate (1/s)
	minH   float64   // fleet min/max steady hazards, for banding
	maxH   float64
	eOut   float64 // expected outage duration (s)
	burst  int     // correlated revocation group size
}

// New builds the model for a fleet of nServers under cfg. A nil-kind
// or ShockNone config yields the zero-hazard model.
func New(cfg trace.ShockConfig, nServers int) *Model {
	cfg = cfg.WithDefaults()
	m := &Model{cfg: cfg, n: nServers, burst: 1}
	if nServers <= 0 {
		return m
	}
	m.steady = make([]float64, nServers)
	if cfg.Kind == "" || cfg.Kind == trace.ShockNone {
		return m
	}
	m.eOut = expectedOutage(cfg.OutageMean)
	if cfg.Kind == trace.ShockRack {
		m.burst = cfg.EffectiveRackSize(nServers)
	}
	for s := 0; s < nServers; s++ {
		if cfg.Kind == trace.ShockDiurnal {
			// Window-time renewal: candidates accept at gap mean gm inside
			// the window, and each outage burns its expected window overlap
			// of window time. Day-averaged hazard spreads the per-window
			// rate over the whole day.
			sc := m.scale(s)
			if sc > 0 {
				gm := trace.DiurnalWindowLen / (cfg.RatePerDay * sc)
				m.steady[s] = trace.DiurnalWindowLen / (86400 * (gm + m.windowDeadTime()))
			}
			continue
		}
		raw := m.rawRate(s)
		if raw > 0 {
			m.steady[s] = 1 / (1/raw + m.eOut)
		}
	}
	m.minH, m.maxH = m.steady[0], m.steady[0]
	for _, h := range m.steady[1:] {
		m.minH = math.Min(m.minH, h)
		m.maxH = math.Max(m.maxH, h)
	}
	return m
}

// expectedOutage is E[max(MinOutage, Exp(mean))] — the mean of the
// floored-exponential outage drawOutage samples.
func expectedOutage(mean float64) float64 {
	return trace.MinOutageSeconds + mean*math.Exp(-trace.MinOutageSeconds/mean)
}

// scale mirrors ShockConfig's per-server rate multiplier.
func (m *Model) scale(s int) float64 {
	if s >= len(m.cfg.RateScale) {
		return 1
	}
	return m.cfg.RateScale[s]
}

// windowDeadTime is E[W], the expected window-time one outage consumes:
// the outage starts uniformly inside the window (memoryless candidate
// arrival) with exponential length μ, so the overlap with the remaining
// window is E[min(out, L−u)] averaged over u — μ − (μ²/L)(1−e^{−L/μ}).
// Overlap with later days' windows is negligible at realistic outage
// means (it would need an outage spanning the ~20 h inter-window gap).
func (m *Model) windowDeadTime() float64 {
	μ, L := m.eOut, trace.DiurnalWindowLen
	return μ - μ*μ/L*(1-math.Exp(-L/μ))
}

// rawRate is server s's candidate revocation rate while up, per second.
func (m *Model) rawRate(s int) float64 {
	perSec := m.cfg.RatePerDay / 86400
	switch m.cfg.Kind {
	case trace.ShockPoisson, trace.ShockDiurnal:
		return perSec * m.scale(s)
	case trace.ShockRack:
		// A rack shock revokes the whole group; server s revokes at the
		// rack's share of the cluster shock rate — RatePerDay times the
		// rack's mean scale per server per day.
		rack := m.burst
		g := s / rack
		var w float64
		for i := g * rack; i < (g+1)*rack && i < m.n; i++ {
			w += m.scale(i)
		}
		return perSec * w / float64(rack)
	}
	return 0
}

// SteadyHazard returns server s's long-run revocation rate in
// revocations per second, outage dead time included. Day-averaged for
// diurnal shocks, whose hazard concentrates inside the daily window.
func (m *Model) SteadyHazard(s int) float64 {
	if s < 0 || s >= len(m.steady) {
		return 0
	}
	return m.steady[s]
}

// OutageFraction returns the long-run fraction of time server s spends
// revoked — steady hazard times expected outage. Summed against server
// capacities this is the expected simultaneously-revoked capacity, the
// quantity admission headroom reserves for.
func (m *Model) OutageFraction(s int) float64 {
	return m.SteadyHazard(s) * m.eOut
}

// Band quantises server s's steady hazard into one of nBands bands,
// 0 = lowest hazard. Bands interpolate linearly between the fleet's
// min and max hazards; a homogeneous fleet (or zero hazard) is all
// band 0, so hazard-aware candidate orders degenerate to the legacy
// order exactly. Pure function of (config, s) — every engine
// configuration computes identical bands.
func (m *Model) Band(s int, nBands int) int {
	if nBands <= 1 || m.maxH <= m.minH {
		return 0
	}
	h := m.SteadyHazard(s)
	b := int((h - m.minH) / (m.maxH - m.minH) * float64(nBands))
	if b >= nBands {
		b = nBands - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

package risk

import (
	"math"

	"vmdeflate/internal/trace"
)

// The forecast integrals the tests audit the model with: the hazard the
// admission bands and reserves are built from, integrated over time and
// held to the shock generator's empirical mass. Placement reads only
// SteadyHazard, OutageFraction and Band.

// HazardRate returns server s's instantaneous revocation hazard at
// simulation time t (seconds from trace start), in revocations per
// second. For diurnal shocks the hazard concentrates inside the daily
// revocation window and is zero outside it.
func (m *Model) HazardRate(s int, t float64) float64 {
	h := m.SteadyHazard(s)
	if m.cfg.Kind != trace.ShockDiurnal || h == 0 {
		return h
	}
	day := math.Mod(t, 86400)
	if day < trace.DiurnalWindowStart || day >= trace.DiurnalWindowStart+trace.DiurnalWindowLen {
		return 0
	}
	return h * 86400 / trace.DiurnalWindowLen
}

// ServerMass returns the expected number of revocations of server s in
// [t, t+window) — the integral of HazardRate over the window.
func (m *Model) ServerMass(s int, t, window float64) float64 {
	h := m.SteadyHazard(s)
	if h == 0 || window <= 0 {
		return 0
	}
	if m.cfg.Kind == trace.ShockDiurnal {
		return h * 86400 / trace.DiurnalWindowLen * windowOverlap(t, window)
	}
	return h * window
}

// ForecastMass returns the expected number of revocations fleet-wide in
// [t, t+window): the sum of ServerMass over servers in index order.
func (m *Model) ForecastMass(t, window float64) float64 {
	var mass float64
	for s := 0; s < len(m.steady); s++ {
		mass += m.ServerMass(s, t, window)
	}
	return mass
}

// windowOverlap returns the number of seconds of [t, t+window) that
// fall inside the daily diurnal revocation window.
func windowOverlap(t, window float64) float64 {
	end := t + window
	var total float64
	// Walk day by day; horizons are tens of days, so the loop is cheap.
	for day := math.Floor(t / 86400); day*86400 < end; day++ {
		ws := day*86400 + trace.DiurnalWindowStart
		we := ws + trace.DiurnalWindowLen
		lo := math.Max(t, ws)
		hi := math.Min(end, we)
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

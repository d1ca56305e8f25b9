package trace

import "vmdeflate/internal/stats"

// Test fixtures and probes: the generator defaults the scenario tests
// run at, and the per-VM feasibility metric of Figures 5-8 the shape
// tests read (the figures themselves read it through the feasibility
// package).

// DefaultScenarioConfig returns kind with the generator defaults (1000
// VMs over three days, seed 1).
func DefaultScenarioConfig(kind Scenario) ScenarioConfig {
	return ScenarioConfig{Kind: kind, NumVMs: 1000, Duration: 3 * 86400, Seed: 1}
}

// FractionAboveDeflation returns the fraction of the VM's lifetime during
// which its CPU utilisation exceeds the allocation remaining after
// deflating by deflatePct percent — the core feasibility metric of
// Figures 5-8 ("fraction of time spent above the deflated allocation").
func (r *VMRecord) FractionAboveDeflation(deflatePct float64) float64 {
	return stats.FractionAbove(r.CPUUtil, 100-deflatePct)
}

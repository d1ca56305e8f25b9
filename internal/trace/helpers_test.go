package trace

import (
	"testing"

	"vmdeflate/internal/stats"
)

// Test fixtures and probes: the generator defaults the scenario tests
// run at, and the per-VM feasibility metric of Figures 5-8 the shape
// tests read (the figures themselves read it through the feasibility
// package).

// DefaultScenarioConfig returns kind with the generator defaults (1000
// VMs over three days, seed 1).
func DefaultScenarioConfig(kind Scenario) ScenarioConfig {
	return ScenarioConfig{Kind: kind, NumVMs: 1000, Duration: 3 * 86400, Seed: 1}
}

// generateAzure is the azure scenario's eager trace of n VMs over
// DefaultScenarioConfig's three days.
func generateAzure(t *testing.T, n int, seed int64) *AzureTrace {
	t.Helper()
	tr, err := GenerateNamed("azure", n, 3*86400, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// FractionAboveDeflation returns the fraction of the VM's lifetime during
// which its CPU utilisation exceeds the allocation remaining after
// deflating by deflatePct percent — the core feasibility metric of
// Figures 5-8 ("fraction of time spent above the deflated allocation").
func (r *VMRecord) FractionAboveDeflation(deflatePct float64) float64 {
	return stats.FractionAbove(r.CPUUtil, 100-deflatePct)
}

// Record materialises VM i alone as an eager VMRecord, utilisation
// included: the per-VM probe the tests hold Materialize to.
func (s *Stream) Record(i int) *VMRecord {
	p := s.Params(i)
	vm := &VMRecord{
		ID:       p.ID(),
		Class:    p.Class,
		Cores:    p.Cores,
		MemoryMB: p.MemoryMB,
		Start:    p.Start,
		End:      p.End,
	}
	vm.CPUUtil = NewSeriesSynth().Append(p, make([]float64, 0, p.Samples()))
	return vm
}

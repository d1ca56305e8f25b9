package trace

import (
	"fmt"
	"math"
)

// Scenario names a synthetic workload shape for the cluster simulator.
// The Azure-like default reproduces the paper's trace statistics; the
// other scenarios stress the engine with workload diversity the paper's
// single trace cannot: pronounced day/night swings, flash crowds, and
// heavy-tailed lifetimes.
type Scenario string

const (
	// ScenarioAzure is the calibrated Azure-2017-like default.
	ScenarioAzure Scenario = "azure"
	// ScenarioDiurnal exaggerates day/night seasonality: arrivals and
	// utilisation both swing hard with the time of day, so the cluster
	// oscillates between deep surplus and deflation pressure.
	ScenarioDiurnal Scenario = "diurnal"
	// ScenarioBursty layers flash crowds over a calm Poisson background:
	// short-lived, hot interactive VMs arrive in tight windows,
	// hammering admission control and reclamation simultaneously.
	ScenarioBursty Scenario = "bursty"
	// ScenarioHeavyTail draws VM lifetimes from a Pareto distribution:
	// most VMs are ephemeral but a fat tail runs for days, so capacity
	// slowly silts up with long-lived residents.
	ScenarioHeavyTail Scenario = "heavytail"
)

// Scenarios lists all scenario kinds in canonical order.
func Scenarios() []Scenario {
	return []Scenario{ScenarioAzure, ScenarioDiurnal, ScenarioBursty, ScenarioHeavyTail}
}

// ParseScenario validates a scenario name.
func ParseScenario(s string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if string(sc) == s {
			return sc, nil
		}
	}
	return "", fmt.Errorf("trace: unknown scenario %q (want azure, diurnal, bursty or heavytail)", s)
}

// GenerateNamed parses a scenario name and generates its trace in one
// step — the name → generator lookup shared by the simulation CLIs
// (deflationsim, benchreport), which used to duplicate it.
func GenerateNamed(name string, numVMs int, duration float64, seed int64) (*AzureTrace, error) {
	kind, err := ParseScenario(name)
	if err != nil {
		return nil, err
	}
	return GenerateScenario(ScenarioConfig{Kind: kind, NumVMs: numVMs, Duration: duration, Seed: seed})
}

// ScenarioGenerator validates a scenario name and duration once and
// returns the pure seed → trace generator replicated sweeps fan out over
// (each worker synthesises its own independently seeded replicate).
func ScenarioGenerator(name string, numVMs int, duration float64) (func(seed int64) *AzureTrace, error) {
	kind, err := ParseScenario(name)
	if err != nil {
		return nil, err
	}
	if _, err := NewStream(ScenarioConfig{Kind: kind, Duration: duration}); err != nil {
		return nil, err
	}
	return func(seed int64) *AzureTrace {
		// NewStream above is GenerateScenario's only error path and the
		// seed cannot fail it, so the error is statically nil here.
		tr, _ := GenerateScenario(ScenarioConfig{Kind: kind, NumVMs: numVMs, Duration: duration, Seed: seed})
		return tr
	}, nil
}

// ScenarioConfig parameterises GenerateScenario. Generation is a pure
// function of the config: the same config always yields the same trace,
// which is what lets sweep workers generate traces concurrently and
// still produce bit-for-bit reproducible results.
type ScenarioConfig struct {
	Kind     Scenario
	NumVMs   int
	Duration float64 // horizon in seconds
	Seed     int64
}

// DefaultScenarioConfig returns kind with the generator defaults (1000
// VMs over three days, seed 1).
func DefaultScenarioConfig(kind Scenario) ScenarioConfig {
	return ScenarioConfig{Kind: kind, NumVMs: 1000, Duration: 3 * 86400, Seed: 1}
}

// GenerateScenario builds the synthetic trace for cfg: the eagerly
// materialised form of NewStream(cfg), bit-for-bit identical to reading
// the same VMs through the stream.
func GenerateScenario(cfg ScenarioConfig) (*AzureTrace, error) {
	s, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.NumVMs <= 0 {
		return &AzureTrace{}, nil
	}
	return s.Materialize(), nil
}

// clipLifetime bounds a lifetime into [SampleInterval, horizon] and the
// start/end window into the trace horizon, mirroring GenerateAzure's
// clipping so every scenario yields well-formed records.
func clipWindow(start0, life, horizon float64) (start, end float64) {
	if life > horizon {
		life = horizon
	}
	if life < SampleInterval {
		life = SampleInterval
	}
	start = math.Max(0, start0)
	end = math.Min(horizon, start0+life)
	if end-start < SampleInterval {
		end = start + SampleInterval
		if end > horizon {
			start = horizon - SampleInterval
			end = horizon
		}
	}
	return start, end
}

package clustersim

import (
	"reflect"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// FuzzStreamMatchesEager holds the row source's two adapters to one
// another end to end. Each input picks a scenario, up to 600 VMs over
// one day, a seed, an overcommitment, a policy, a capacity-shock kind
// (none, poisson or rack) and a mode (deflation or preemption). A run
// over the trace.Stream must return a Result reflect.DeepEqual to a run
// over Stream.Materialize(), or fail with the same error.
//
// A stream cannot hold a zero-lifetime row (its generators clip every
// lifetime to at least one sample interval), and a trace read from CSV
// cannot be compared with one (WriteAzureCSV rounds samples to four
// decimals), so that CSV-only case stays with
// FuzzPreemptionMatchesParentLoop and TestArrivalOverlayMatchesHeap.
//
//	go test -run '^$' -fuzz FuzzStreamMatchesEager -fuzztime 15s -fuzzminimizetime 200x ./internal/clustersim
func FuzzStreamMatchesEager(f *testing.F) {
	for i := range trace.Scenarios() {
		f.Add(uint8(i), uint16(300), int64(i+1), uint8(50), uint8(i), uint8(i%3), uint8(0))
		f.Add(uint8(i), uint16(200), int64(i+7), uint8(90), uint8(1), uint8(2-i%2), uint8(1))
	}
	f.Fuzz(func(t *testing.T, scenario uint8, n uint16, seed int64, oc, pol, shock, mode uint8) {
		kinds := trace.Scenarios()
		s, err := trace.NewStream(trace.ScenarioConfig{
			Kind:     kinds[int(scenario)%len(kinds)],
			NumVMs:   1 + int(n)%600,
			Duration: 86400,
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		policies := []string{"proportional", "priority", "deterministic", "latency"}
		p, err := policy.ByName(policies[int(pol)%len(policies)])
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Policy:     p,
			Overcommit: float64(oc%101) / 100,
			Mode:       []Mode{ModeDeflation, ModePreemption}[mode%2],
		}
		if k := []trace.ShockScenario{"", trace.ShockPoisson, trace.ShockRack}[shock%3]; k != "" {
			cfg.ShockConfig = &trace.ShockConfig{Kind: k, RatePerDay: 2, OutageMean: 7200, Seed: seed}
		}
		eagerCfg, streamCfg := cfg, cfg
		eagerCfg.Trace, streamCfg.Stream = s.Materialize(), s
		eager, eagerErr := Run(eagerCfg)
		streamed, streamErr := Run(streamCfg)
		if eagerErr != nil || streamErr != nil {
			if eagerErr == nil || streamErr == nil || eagerErr.Error() != streamErr.Error() {
				t.Fatalf("errors differ: eager %v, streamed %v", eagerErr, streamErr)
			}
			return
		}
		if !reflect.DeepEqual(streamed, eager) {
			t.Fatalf("streamed run diverged from eager:\nstreamed %+v\neager    %+v", *streamed, *eager)
		}
	})
}

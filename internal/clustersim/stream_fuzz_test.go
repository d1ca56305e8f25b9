package clustersim

import (
	"fmt"
	"reflect"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// FuzzStreamMatchesEager holds the row source's two adapters to one
// another end to end (runStreamMatchesEager). Each input picks a
// scenario, up to 600 VMs over one day, a seed, an overcommitment, a
// policy, a capacity-shock kind (none, poisson or rack), a mode
// (deflation or preemption), priority partitioning and SLO metering.
// The named streams below are longer or pin the run queue.
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
		f.Add(uint8(i), uint16(300), int64(i+1), uint8(50), uint8(i), uint8(i%3), uint8(0), false, false)
		f.Add(uint8(i), uint16(200), int64(i+7), uint8(90), uint8(1), uint8(2-i%2), uint8(1), false, false)
	}
	f.Add(uint8(2), uint16(250), int64(3), uint8(40), uint8(1), uint8(1), uint8(0), true, true)
	f.Add(uint8(1), uint16(200), int64(5), uint8(60), uint8(3), uint8(2), uint8(0), true, true)
	f.Fuzz(func(t *testing.T, scenario uint8, n uint16, seed int64, oc, pol, shock, mode uint8, partitioned, slo bool) {
		kinds := trace.Scenarios()
		sc := trace.ScenarioConfig{
			Kind:     kinds[int(scenario)%len(kinds)],
			NumVMs:   1 + int(n)%600,
			Duration: 86400,
			Seed:     seed,
		}
		policies := []string{"proportional", "priority", "deterministic", "latency"}
		p, err := policy.ByName(policies[int(pol)%len(policies)])
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Policy:      p,
			Overcommit:  float64(oc%101) / 100,
			Mode:        []Mode{ModeDeflation, ModePreemption}[mode%2],
			Partitioned: partitioned,
		}
		if slo {
			cfg.SLO = &SLOConfig{}
		}
		if k := []trace.ShockScenario{"", trace.ShockPoisson, trace.ShockRack}[shock%3]; k != "" {
			cfg.ShockConfig = &trace.ShockConfig{Kind: k, RatePerDay: 2, OutageMean: 7200, Seed: seed}
		}
		runStreamMatchesEager(t, sc, cfg)
	})
}

// runStreamMatchesEager runs cfg once over the trace.Stream sc describes
// and once over its Materialize() form. The streamed Result must be
// reflect.DeepEqual to the eager one, or both runs must fail with the
// same error. It returns the eager Result, or the error both runs met.
func runStreamMatchesEager(t *testing.T, sc trace.ScenarioConfig, cfg Config) (*Result, error) {
	t.Helper()
	s, err := trace.NewStream(sc)
	if err != nil {
		t.Fatal(err)
	}
	eagerCfg, streamCfg := cfg, cfg
	eagerCfg.Trace, streamCfg.Stream = s.Materialize(), s
	eager, eagerErr := Run(eagerCfg)
	streamed, streamErr := Run(streamCfg)
	if eagerErr != nil || streamErr != nil {
		if eagerErr == nil || streamErr == nil || eagerErr.Error() != streamErr.Error() {
			t.Fatalf("errors differ: eager %v, streamed %v", eagerErr, streamErr)
		}
		return nil, eagerErr
	}
	if !reflect.DeepEqual(streamed, eager) {
		t.Fatalf("streamed run diverged from eager:\nstreamed %+v\neager    %+v", *streamed, *eager)
	}
	return eager, nil
}

// TestStreamedEngineMatchesEager runs every scenario at 400 VMs, two
// seeds each, under the priority policy at 50 % overcommitment, on the
// run queue (labelled "calendar" after the queue it replaced) and on the
// binary-heap oracle.
func TestStreamedEngineMatchesEager(t *testing.T) {
	for _, kind := range trace.Scenarios() {
		for _, seed := range []int64{1, 2} {
			for _, queue := range []string{"calendar", "heapqueue"} {
				t.Run(fmt.Sprintf("%v/seed=%d/%s", kind, seed, queue), func(t *testing.T) {
					if queue == "heapqueue" {
						useHeapQueue(t)
					}
					sc := trace.ScenarioConfig{Kind: kind, NumVMs: 400, Duration: 86400, Seed: seed}
					if _, err := runStreamMatchesEager(t, sc, Config{Policy: policy.Priority{}, Overcommit: 0.5}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestStreamedEngineMatchesEagerFullFeatures drives the whole surface at
// once over two days: priority partitioning, SLO metering and Poisson
// capacity shocks, whose revocations force evacuation and
// remaining-demand kills.
func TestStreamedEngineMatchesEagerFullFeatures(t *testing.T) {
	sc := trace.ScenarioConfig{Kind: trace.ScenarioBursty, NumVMs: 500, Duration: 2 * 86400, Seed: 3}
	res, err := runStreamMatchesEager(t, sc, Config{
		Policy:      policy.Priority{},
		Partitioned: true,
		Overcommit:  0.4,
		SLO:         &SLOConfig{},
		ShockConfig: testShockConfig(11),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Revocations == 0 || res.SLOSampleSeconds == 0 {
		t.Fatalf("test premise broken: want shocks and SLO samples, got %+v", *res)
	}
}

// TestStreamedBaselineSizingMatchesEager: with BaselineServers unset,
// the streamed engine derives the cluster size through the streamed
// adapter's geometry walk and must land on the same count, and the same
// Result, as the eager bound.
func TestStreamedBaselineSizingMatchesEager(t *testing.T) {
	sc := trace.ScenarioConfig{Kind: trace.ScenarioHeavyTail, NumVMs: 300, Duration: 86400, Seed: 5}
	if _, err := runStreamMatchesEager(t, sc, Config{Overcommit: 0.3}); err != nil {
		t.Fatal(err)
	}
}

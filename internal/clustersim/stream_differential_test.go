package clustersim

import (
	"fmt"
	"reflect"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// TestStreamedEngineMatchesEager is the streaming tentpole's end-to-end
// guarantee: a run driven by a trace.Stream — parameters generated at
// arrival, utilisation synthesized through cursors, arrivals never
// materialised into the queue — produces a Result bit-for-bit identical
// to running the materialised form of the same stream, across all four
// scenarios, seeds, and both event queues (the calendar queue and the
// binary-heap oracle, on each side).
func TestStreamedEngineMatchesEager(t *testing.T) {
	for _, kind := range trace.Scenarios() {
		for _, seed := range []int64{1, 2} {
			scfg := trace.ScenarioConfig{Kind: kind, NumVMs: 400, Duration: 86400, Seed: seed}
			s, err := trace.NewStream(scfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := s.Materialize()
			for _, queue := range []string{"calendar", "heapqueue"} {
				name := fmt.Sprintf("%v/seed=%d/%s", kind, seed, queue)
				t.Run(name, func(t *testing.T) {
					if queue == "heapqueue" {
						useHeapQueue(t)
					}
					base := Config{Policy: policy.Priority{}, Overcommit: 0.5}
					eagerCfg := base
					eagerCfg.Trace = tr
					eager, err := Run(eagerCfg)
					if err != nil {
						t.Fatal(err)
					}
					streamCfg := base
					streamCfg.Stream = s
					streamed, err := Run(streamCfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(streamed, eager) {
						t.Fatalf("streamed run diverged from eager:\nstreamed %+v\neager    %+v", *streamed, *eager)
					}
				})
			}
		}
	}
}

// TestStreamedEngineMatchesEagerFullFeatures drives the whole surface
// at once — priority partitioning, SLO metering, Poisson capacity
// shocks (revocations force evacuation and remaining-demand kills) —
// and still requires bit-for-bit Result equality between the streamed
// and eager forms.
func TestStreamedEngineMatchesEagerFullFeatures(t *testing.T) {
	s, err := trace.NewStream(trace.ScenarioConfig{
		Kind: trace.ScenarioBursty, NumVMs: 500, Duration: 2 * 86400, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Materialize()
	base := Config{
		Policy:      policy.Priority{},
		Partitioned: true,
		Overcommit:  0.4,
		SLO:         &SLOConfig{},
		ShockConfig: testShockConfig(11),
	}
	eagerCfg := base
	eagerCfg.Trace = tr
	eager, err := Run(eagerCfg)
	if err != nil {
		t.Fatal(err)
	}
	if eager.Revocations == 0 || eager.SLOSampleSeconds == 0 {
		t.Fatalf("test premise broken: want shocks and SLO samples, got %+v", *eager)
	}
	streamCfg := base
	streamCfg.Stream = s
	streamed, err := Run(streamCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, eager) {
		t.Fatalf("streamed full-feature run diverged:\nstreamed %+v\neager    %+v", *streamed, *eager)
	}
}

// TestStreamedBaselineSizingMatchesEager: with BaselineServers unset,
// the streamed engine derives the cluster size through the streamed
// adapter's geometry walk and must land on the same count — and the
// same Result — as the eager bound.
func TestStreamedBaselineSizingMatchesEager(t *testing.T) {
	s, err := trace.NewStream(trace.ScenarioConfig{
		Kind: trace.ScenarioHeavyTail, NumVMs: 300, Duration: 86400, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Materialize()
	eager, err := Run(Config{Trace: tr, Overcommit: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := Run(Config{Stream: s, Overcommit: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, eager) {
		t.Fatalf("self-sized streamed run diverged:\nstreamed %+v\neager    %+v", *streamed, *eager)
	}
}

// TestCalendarQueueMatchesHeapFullRuns closes the loop on the calendar
// queue at the engine level: full runs (eager and streamed) with the
// heap forced must equal the calendar-backed default bit for bit.
func TestCalendarQueueMatchesHeapFullRuns(t *testing.T) {
	s, err := trace.NewStream(trace.ScenarioConfig{
		Kind: trace.ScenarioDiurnal, NumVMs: 400, Duration: 86400, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Materialize()
	for _, mode := range []string{"eager", "streamed"} {
		cfg := Config{Policy: policy.Priority{}, Overcommit: 0.5, ShockConfig: testShockConfig(7)}
		if mode == "eager" {
			cfg.Trace = tr
		} else {
			cfg.Stream = s
		}
		cal, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runOracleModes(t, mode+"/", cfg, cal)
	}
}

// TestSweepGridStreamMatchesEager: the sweep layer over a stream — the
// deflationsim -stream path — equals SweepGrid over the materialised
// trace at every strategy × overcommitment point, the preemption
// baseline's included, with the self-derived baseline cluster size.
func TestSweepGridStreamMatchesEager(t *testing.T) {
	s, err := trace.NewStream(trace.ScenarioConfig{
		Kind: trace.ScenarioAzure, NumVMs: 300, Duration: 86400, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	strategies := []string{StrategyProportional, StrategyLatency, StrategyPreemption}
	ocs := []float64{0, 30, 50}
	eager, err := SweepGrid(s.Materialize(), strategies, ocs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := SweepGridStream(s, strategies, ocs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, eager) {
		t.Fatalf("streamed sweep diverged:\nstreamed %+v\neager    %+v", streamed, eager)
	}
	if p := eager[2].Points[2]; p.FailureProbability == 0 {
		t.Fatalf("preemption at %v%% overcommit preempted nothing; the pair is vacuous", p.OvercommitPct)
	}
}

// TestStreamConfigValidation pins the Config surface: Trace and Stream
// are mutually exclusive, one of them is required, and the preemption
// baseline runs on a stream as on its materialised trace.
func TestStreamConfigValidation(t *testing.T) {
	s, err := trace.NewStream(trace.ScenarioConfig{
		Kind: trace.ScenarioAzure, NumVMs: 10, Duration: 86400, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Stream: s, Trace: s.Materialize()}); err == nil {
		t.Error("Trace+Stream together: want error")
	}
	streamed, err := Run(Config{Stream: s, Mode: ModePreemption, Overcommit: 1})
	if err != nil {
		t.Fatalf("preemption over a stream: %v", err)
	}
	eager, err := Run(Config{Trace: s.Materialize(), Mode: ModePreemption, Overcommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, eager) {
		t.Errorf("preemption over a stream diverged:\nstreamed %+v\neager    %+v", *streamed, *eager)
	}
	if _, err := Run(Config{}); err == nil {
		t.Error("neither Trace nor Stream: want error")
	}
}

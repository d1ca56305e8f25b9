package clustersim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// TestPreemptionBaselineUnderOracleModes is the differential guarantee
// for preemption.go beside the deflation engine: one trace is run in
// preemption mode and in deflation mode, each under every retained
// oracle, and every Result must equal its default run bit for bit. The
// preemption loop ignores the two placement oracles and must prove it;
// the heap queue drives both loops. The trace is sized so the baseline
// actually preempts — otherwise the test would pass vacuously.
func TestPreemptionBaselineUnderOracleModes(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.ScenarioConfig{
		Kind: trace.ScenarioDiurnal, NumVMs: 500, Duration: 86400, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModePreemption, ModeDeflation} {
		base := Config{Trace: tr, Mode: mode, Policy: policy.Priority{}, Overcommit: 0.6}
		want, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if mode == ModePreemption {
			if want.Preemptions == 0 {
				t.Fatal("baseline run preempted nothing; the differential is vacuous")
			}
			if want.FailureProbability <= 0 {
				t.Fatal("baseline failure probability is zero under pressure")
			}
		}
		runOracleModes(t, fmt.Sprintf("mode=%d/", mode), base, want)
	}
}

// TestPreemptionRepeatableOnFractionalSizes: with memory sizes that are
// not exactly representable sums, the order in which a server's
// evictable residents are folded into its available capacity decides
// the low bits of the fit score, and through it which server is
// evicted from. That order is admission order, a function of simulation
// state, so repeated runs must be identical. (Integral sizes, as the
// synthetic generators draw, are exact in any order and cannot show
// this.)
func TestPreemptionRepeatableOnFractionalSizes(t *testing.T) {
	tr := fractionalTrace(8, 1500)
	rng := rand.New(rand.NewSource(8))
	for i, vm := range tr.VMs {
		if i%2 == 1 {
			vm.Class = trace.DelayInsensitive // on-demand: may preempt
		}
		for n := int((vm.End - vm.Start) / trace.SampleInterval); n > 0; n-- {
			vm.CPUUtil = append(vm.CPUUtil, rng.Float64()*100)
		}
	}
	cfg := Config{Trace: tr, Mode: ModePreemption, Overcommit: 0.6}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Preemptions == 0 {
		t.Fatal("test premise broken: the baseline preempted nothing")
	}
	for i := 1; i < 20; i++ {
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged from the first:\ngot   %+v\nfirst %+v", i, *got, *first)
		}
	}
}

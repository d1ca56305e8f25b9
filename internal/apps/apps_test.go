package apps

import (
	"math"
	"testing"

	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/sim"
	"vmdeflate/internal/stats"
	"vmdeflate/internal/workload"
)

func TestMetrics(t *testing.T) {
	var m Metrics
	if p := m.point(0, 1); !math.IsNaN(p.ServedFraction) || !math.IsNaN(p.Mean) {
		t.Errorf("empty metrics: served fraction %v, mean %v, want NaN", p.ServedFraction, p.Mean)
	}
	for _, rt := range []float64{0.4, 0.1, 0.3, 0.2} {
		m.Record(rt)
	}
	m.Drop()
	var warm *Metrics // a warm-up request's: records nothing
	warm.Record(1)
	warm.Drop()
	if len(m.ResponseTimes) != 4 || m.Dropped != 1 {
		t.Errorf("counters = %d/%d", len(m.ResponseTimes), m.Dropped)
	}
	p := m.point(30, 21)
	if p.DeflationPct != 30 || p.Cores != 21 || p.ServedFraction != 0.8 {
		t.Errorf("point = %+v", p)
	}
	if p.Mean != 0.25 || p.Median != 0.25 {
		t.Errorf("point mean/median = %v/%v", p.Mean, p.Median)
	}
	if p.P90 < p.Median || p.P99 < p.P90 {
		t.Errorf("percentile ordering: %v %v", p.P90, p.P99)
	}
	if got := stats.Percentile(m.ResponseTimes, 100); got != 0.4 {
		t.Errorf("P100 = %v", got)
	}
}

// TestMeasureSkipsWarmUp: the open-loop runner hands serve a nil
// *Metrics for every arrival before warmupFrac of the run and its own
// Metrics for every later one, stops the source at Duration and returns
// what the measured requests recorded.
func TestMeasureSkipsWarmUp(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{Duration: 20, Seed: 1}
	var warm, measured int
	m := measure(eng, cfg, 1, func(h workload.Handler) *workload.Source {
		return workload.NewConstantSource(eng, 10, h)
	}, func(now float64, m *Metrics) {
		if (m == nil) != (now < cfg.Duration*warmupFrac) || now > cfg.Duration {
			t.Errorf("arrival at %g s of a %g s run: measured %v", now, cfg.Duration, m != nil)
		}
		if m == nil {
			warm++
		} else {
			measured++
		}
		m.Record(now)
	})
	if warm == 0 || measured == 0 || len(m.ResponseTimes) != measured {
		t.Errorf("%d warm-up and %d measured arrivals, %d recorded", warm, measured, len(m.ResponseTimes))
	}
}

var fig3Pcts = []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}

// Figure 3: per-application deflation-response curves from the real
// resource models on real deflated domains.
func TestFigure3Curves(t *testing.T) {
	curves := map[string][]float64{}
	for _, model := range []ResourceModel{SpecJBB{}, Kcompile{}, Memcached{}} {
		pts, err := Sweep(fig3Pcts, func(pct float64) (float64, error) {
			return PerformanceAt(model, mechanism.Transparent{}, pct)
		})
		if err != nil {
			t.Fatalf("%s: %v", model.Name(), err)
		}
		if len(pts) != len(fig3Pcts) {
			t.Fatalf("%s: %d points", model.Name(), len(pts))
		}
		// Performance at zero deflation is 1 and the curve is monotone
		// non-increasing.
		if pts[0] != 1 {
			t.Errorf("%s: perf(0) = %v", model.Name(), pts[0])
		}
		for i := 1; i < len(pts); i++ {
			if pts[i] > pts[i-1]+1e-9 {
				t.Errorf("%s: performance increased at %v%%", model.Name(), fig3Pcts[i])
			}
		}
		curves[model.Name()] = pts
	}
	// SpecJBB has no slack: visible degradation by 10%.
	if curves["specjbb"][1] >= 0.999 {
		t.Errorf("specjbb should degrade immediately: %v", curves["specjbb"][1])
	}
	// Memcached holds ~1 through 30% deflation (its slack region).
	if curves["memcached"][3] < 0.97 {
		t.Errorf("memcached at 30%% = %v, want ~1", curves["memcached"][3])
	}
	// At 50%: memcached > kcompile > specjbb (Figure 3's ordering).
	mc, kc, sj := curves["memcached"][5], curves["kcompile"][5], curves["specjbb"][5]
	if !(mc > kc && kc > sj) {
		t.Errorf("ordering at 50%%: memcached=%v kcompile=%v specjbb=%v", mc, kc, sj)
	}
}

func TestDeflationCurveRejectsBadPct(t *testing.T) {
	if _, err := PerformanceAt(SpecJBB{}, mechanism.Transparent{}, 100); err == nil {
		t.Error("100% deflation should fail")
	}
}

// Figure 14: SpecJBB memory deflation — transparent flat until ~40%,
// rising after; hybrid at or below transparent everywhere and ~10%
// better than baseline in the mid-range.
func TestFigure14SpecJBBMemory(t *testing.T) {
	pcts := []float64{0, 10, 20, 30, 40, 45}
	rt := func(mech mechanism.Mechanism) []float64 {
		pts, err := Sweep(pcts, func(pct float64) (float64, error) { return SpecJBBMemoryRT(mech, pct) })
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	tr, hy := rt(mechanism.Transparent{}), rt(mechanism.Hybrid{})
	// Transparent: flat (1.0) while the limit stays above the JVM's RSS.
	for i, p := range tr {
		if pcts[i] <= 40 && math.Abs(p-1) > 0.02 {
			t.Errorf("transparent at %v%% = %v, want ~1", pcts[i], p)
		}
	}
	// Transparent at 45% pays for swapping.
	if tr[5] < 1.15 {
		t.Errorf("transparent at 45%% = %v, want > 1.15", tr[5])
	}
	// Hybrid never worse than transparent, and better than baseline
	// (~0.9) in the 20-40% range.
	for i := range pcts {
		if hy[i] > tr[i]+1e-9 {
			t.Errorf("hybrid worse than transparent at %v%%: %v > %v",
				pcts[i], hy[i], tr[i])
		}
	}
	for _, i := range []int{2, 3, 4} {
		if hy[i] > 0.97 {
			t.Errorf("hybrid at %v%% = %v, want ~0.90 (hot-unplug benefit)",
				pcts[i], hy[i])
		}
	}
}

func TestSpecJBBMemoryCurveRejectsBadPct(t *testing.T) {
	if _, err := SpecJBBMemoryRT(mechanism.Hybrid{}, -1); err == nil {
		t.Error("negative deflation should fail")
	}
}

func shortWikiConfig() Config {
	cfg := DefaultWikipediaConfig()
	cfg.Duration = 40
	return cfg
}

// Figures 16+17: Wikipedia response times flat until ~70% CPU deflation;
// request loss only appears beyond 70%.
func TestWikipediaDeflationShape(t *testing.T) {
	cfg := shortWikiConfig()
	base, err := RunWikipedia(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.Mean < 0.2 || base.Mean > 0.5 {
		t.Errorf("undeflated mean RT = %v, want ~0.3 (paper)", base.Mean)
	}
	if base.ServedFraction < 0.999 {
		t.Errorf("undeflated served = %v, want ~1", base.ServedFraction)
	}
	if base.Cores != 30 {
		t.Errorf("cores = %v", base.Cores)
	}

	d50, err := RunWikipedia(cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	if d50.ServedFraction < 0.999 {
		t.Errorf("50%% deflation served = %v, want ~1", d50.ServedFraction)
	}
	if d50.Mean > 2*base.Mean {
		t.Errorf("50%% deflation mean = %v, want < 2x base %v", d50.Mean, base.Mean)
	}

	d80, err := RunWikipedia(cfg, 80)
	if err != nil {
		t.Fatal(err)
	}
	if d80.Mean < d50.Mean {
		t.Errorf("80%% deflation should be slower than 50%%: %v < %v", d80.Mean, d50.Mean)
	}
	if d80.ServedFraction > 0.98 {
		t.Errorf("80%% deflation should drop requests: served=%v", d80.ServedFraction)
	}

	d97, err := RunWikipedia(cfg, 97)
	if err != nil {
		t.Fatal(err)
	}
	// Deflated to ~1 core the app survives but sheds most load (the
	// paper: "even when deflated to a single core, the application did
	// not crash").
	if d97.ServedFraction > 0.4 || d97.ServedFraction <= 0 {
		t.Errorf("97%% deflation served = %v, want small but positive", d97.ServedFraction)
	}
}

func TestWikipediaSweepAndValidation(t *testing.T) {
	cfg := shortWikiConfig()
	cfg.Duration = 20
	pts, err := Sweep([]float64{0, 50}, func(pct float64) (Point, error) { return RunWikipedia(cfg, pct) })
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if _, err := RunWikipedia(cfg, 100); err == nil {
		t.Error("100% deflation should fail")
	}
	if _, err := RunWikipedia(cfg, -1); err == nil {
		t.Error("negative deflation should fail")
	}
}

// Figure 18: the social network tolerates 50% deflation with negligible
// loss and degrades abruptly beyond.
func TestSocialNetworkDeflationShape(t *testing.T) {
	cfg := DefaultSocialNetConfig()
	cfg.Duration = 40

	base, err := RunSocialNetwork(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.ServedFraction < 0.999 {
		t.Errorf("undeflated served = %v", base.ServedFraction)
	}

	d50, err := RunSocialNetwork(cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	// "No performance losses" on Figure 18's log-scale axis: the median
	// stays within a small constant factor and well under 0.2 s absolute.
	if d50.Median > 5*base.Median || d50.Median > 0.2 {
		t.Errorf("50%% deflation median %v vs base %v: should stay near base", d50.Median, base.Median)
	}
	if d50.ServedFraction < 0.99 {
		t.Errorf("50%% deflation served = %v", d50.ServedFraction)
	}

	d65, err := RunSocialNetwork(cfg, 65)
	if err != nil {
		t.Fatal(err)
	}
	// Abrupt degradation: tail at least 10x the 50% level.
	if d65.P99 < 10*d50.P99 {
		t.Errorf("65%% deflation p99 = %v, want >> %v (abrupt knee)", d65.P99, d50.P99)
	}
}

func TestSocialNetworkValidation(t *testing.T) {
	cfg := DefaultSocialNetConfig()
	if _, err := RunSocialNetwork(cfg, 100); err == nil {
		t.Error("100% should fail")
	}
	eng := simEngineForTest()
	sn := NewSocialNetwork(eng, 1, 2, 2, 2, 2)
	if n := len(sn.frontend) + len(sn.logic) + len(sn.cache) + len(sn.db); n != 30 {
		t.Errorf("services = %d, want 30", n)
	}
}

// Figure 19: the deflation-aware balancer beats vanilla WRR at high
// deflation levels.
func TestDeflationAwareLBBeatsVanilla(t *testing.T) {
	cfg := DefaultLBConfig()
	cfg.Duration = 40
	aware, err := RunLBExperiment(cfg, 70, true)
	if err != nil {
		t.Fatal(err)
	}
	vanilla, err := RunLBExperiment(cfg, 70, false)
	if err != nil {
		t.Fatal(err)
	}
	if aware.P90 >= vanilla.P90 {
		t.Errorf("aware p90 %v should beat vanilla %v at 70%% deflation", aware.P90, vanilla.P90)
	}
	if aware.Mean > vanilla.Mean*1.05 {
		t.Errorf("aware mean %v should be <= vanilla %v", aware.Mean, vanilla.Mean)
	}
}

func TestLBUndeflatedEquivalent(t *testing.T) {
	cfg := DefaultLBConfig()
	cfg.Duration = 30
	aware, err := RunLBExperiment(cfg, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	vanilla, err := RunLBExperiment(cfg, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same weights -> nearly identical performance.
	if math.Abs(aware.Mean-vanilla.Mean) > 0.05*vanilla.Mean {
		t.Errorf("undeflated means should match: %v vs %v", aware.Mean, vanilla.Mean)
	}
	if _, err := RunLBExperiment(cfg, 100, true); err == nil {
		t.Error("100% should fail")
	}
}

func TestLBSweep(t *testing.T) {
	cfg := DefaultLBConfig()
	cfg.Duration = 20
	balance := func(aware bool) []Point {
		pts, err := Sweep([]float64{0, 40}, func(pct float64) (Point, error) { return RunLBExperiment(cfg, pct, aware) })
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	aware, vanilla := balance(true), balance(false)
	if len(aware) != 2 || len(vanilla) != 2 {
		t.Fatalf("lengths = %d/%d", len(aware), len(vanilla))
	}
}

package risk

import (
	"math"
	"testing"

	"vmdeflate/internal/trace"
)

// TestForecastMassMatchesEmpiricalShockMass is the model's contract:
// the analytic forecast mass converges to the empirical revocation
// count of trace.GenerateShocks over a long horizon, for all three
// scenarios across multiple seeds. MaxOutFraction is 1 so the
// admission cap (which the model deliberately ignores) does not thin
// the schedule.
func TestForecastMassMatchesEmpiricalShockMass(t *testing.T) {
	const (
		n       = 200
		horizon = 60 * 86400.0
		tol     = 0.10
	)
	scenarios := []struct {
		kind trace.ShockScenario
		rate float64
	}{
		{trace.ShockPoisson, 1},
		{trace.ShockPoisson, 4},
		{trace.ShockDiurnal, 1},
		{trace.ShockRack, 1},
	}
	for _, sc := range scenarios {
		for _, seed := range []int64{1, 7, 42} {
			cfg := trace.ShockConfig{
				Kind: sc.kind, Duration: horizon, RatePerDay: sc.rate,
				OutageMean: 2 * 3600, MaxOutFraction: 1, Seed: seed,
			}
			model := New(cfg, n)
			want := model.ForecastMass(0, horizon)
			var got float64
			for _, sh := range trace.GenerateShocks(cfg, n) {
				if sh.Kind == trace.ShockRevoke {
					got++
				}
			}
			if got == 0 || want == 0 {
				t.Fatalf("%s rate %g seed %d: empty mass (analytic %.1f, empirical %.0f)", sc.kind, sc.rate, seed, want, got)
			}
			if rel := math.Abs(got-want) / want; rel > tol {
				t.Errorf("%s rate %g seed %d: analytic mass %.1f vs empirical %.0f (%.1f%% off, tolerance %.0f%%)",
					sc.kind, sc.rate, seed, want, got, rel*100, tol*100)
			}
		}
	}
}

// TestForecastMassHeterogeneous: with a portfolio RateScale, per-server
// forecast mass follows the scales — summed per scale group it still
// matches the empirical counts.
func TestForecastMassHeterogeneous(t *testing.T) {
	const (
		n       = 200
		horizon = 60 * 86400.0
	)
	scales := make([]float64, n)
	for s := range scales {
		if s < n/2 {
			scales[s] = 0.25
		} else {
			scales[s] = 1.5
		}
	}
	for _, kind := range []trace.ShockScenario{trace.ShockPoisson, trace.ShockDiurnal, trace.ShockRack} {
		cfg := trace.ShockConfig{
			Kind: kind, Duration: horizon, RatePerDay: 1, OutageMean: 2 * 3600,
			MaxOutFraction: 1, RackSize: 8, RateScale: scales, Seed: 11,
		}
		model := New(cfg, n)
		var wantLo, wantHi, gotLo, gotHi float64
		for s := 0; s < n; s++ {
			if s < n/2 {
				wantLo += model.ServerMass(s, 0, horizon)
			} else {
				wantHi += model.ServerMass(s, 0, horizon)
			}
		}
		for _, sh := range trace.GenerateShocks(cfg, n) {
			if sh.Kind != trace.ShockRevoke {
				continue
			}
			if sh.Server < n/2 {
				gotLo++
			} else {
				gotHi++
			}
		}
		for _, c := range []struct {
			name      string
			want, got float64
		}{{"low-rate half", wantLo, gotLo}, {"high-rate half", wantHi, gotHi}} {
			if c.want == 0 || c.got == 0 {
				t.Fatalf("%s %s: empty mass (analytic %.1f, empirical %.0f)", kind, c.name, c.want, c.got)
			}
			if rel := math.Abs(c.got-c.want) / c.want; rel > 0.12 {
				t.Errorf("%s %s: analytic %.1f vs empirical %.0f (%.1f%% off)", kind, c.name, c.want, c.got, rel*100)
			}
		}
		if wantHi < 3*wantLo {
			t.Errorf("%s: analytic mass does not follow the 6x rate-scale split: %.1f vs %.1f", kind, wantLo, wantHi)
		}
	}
}

// TestDiurnalHazardProfile: diurnal hazard is zero outside the daily
// window, concentrated inside it, and integrates to the steady mass.
func TestDiurnalHazardProfile(t *testing.T) {
	cfg := trace.ShockConfig{Kind: trace.ShockDiurnal, Duration: 86400, RatePerDay: 1, OutageMean: 3600}
	m := New(cfg, 4)
	if got := m.HazardRate(0, trace.DiurnalWindowStart-1); got != 0 {
		t.Fatalf("hazard outside the window = %g, want 0", got)
	}
	in := m.HazardRate(0, trace.DiurnalWindowStart+1)
	if in <= m.SteadyHazard(0) {
		t.Fatalf("in-window hazard %g not concentrated above the day-averaged %g", in, m.SteadyHazard(0))
	}
	// One full day's mass equals the steady daily mass, window or not.
	day := m.ServerMass(0, 0, 86400)
	if want := m.SteadyHazard(0) * 86400; math.Abs(day-want) > 1e-9*want {
		t.Fatalf("one-day diurnal mass %g != steady daily mass %g", day, want)
	}
	// A window fully outside the revocation hours carries zero mass.
	if got := m.ServerMass(0, 0, trace.DiurnalWindowStart); got != 0 {
		t.Fatalf("pre-window forecast mass = %g, want 0", got)
	}
}

// TestBands: banding is a pure function of config — homogeneous fleets
// collapse to band 0 (the legacy candidate order), heterogeneous fleets
// separate by hazard with low hazard in low bands.
func TestBands(t *testing.T) {
	homog := New(trace.ShockConfig{Kind: trace.ShockPoisson, Duration: 86400, RatePerDay: 1}, 16)
	for s := 0; s < 16; s++ {
		if b := homog.Band(s, 4); b != 0 {
			t.Fatalf("homogeneous fleet server %d in band %d, want 0", s, b)
		}
	}
	none := New(trace.ShockConfig{}, 16)
	if b := none.Band(3, 4); b != 0 || none.SteadyHazard(3) != 0 {
		t.Fatalf("no-shock model: band %d hazard %g, want zeros", b, none.SteadyHazard(3))
	}
	scales := make([]float64, 16)
	for s := range scales {
		scales[s] = 0.1 + float64(s)*0.2
	}
	het := New(trace.ShockConfig{Kind: trace.ShockPoisson, Duration: 86400, RatePerDay: 2, RateScale: scales}, 16)
	if b0, b15 := het.Band(0, 4), het.Band(15, 4); b0 != 0 || b15 != 3 {
		t.Fatalf("heterogeneous fleet: band(min)=%d band(max)=%d, want 0 and 3", b0, b15)
	}
	prev := 0
	for s := 1; s < 16; s++ {
		b := het.Band(s, 4)
		if b < prev {
			t.Fatalf("bands not monotone in hazard: server %d band %d after band %d", s, b, prev)
		}
		prev = b
	}
}

// TestBurstSizeAndOutage: rack models report the effective correlated
// group; the outage expectation matches the floored exponential.
func TestBurstSizeAndOutage(t *testing.T) {
	m := New(trace.ShockConfig{Kind: trace.ShockRack, Duration: 86400, RackSize: 8, MaxOutFraction: 0.25}, 16)
	if got := m.burst; got != 4 {
		t.Fatalf("burst = %d, want the cap-clamped 4", got)
	}
	if got := New(trace.ShockConfig{Kind: trace.ShockPoisson, Duration: 86400}, 16).burst; got != 1 {
		t.Fatalf("poisson burst = %d, want 1", got)
	}
	mean := 2 * 3600.0
	want := trace.MinOutageSeconds + mean*math.Exp(-trace.MinOutageSeconds/mean)
	if got := m.eOut; math.Abs(got-want) > 1e-9 {
		t.Fatalf("expected outage = %g, want %g", got, want)
	}
	// OutageFraction sums to the expected simultaneously-out share.
	frac := m.OutageFraction(0)
	if frac <= 0 || frac >= 1 {
		t.Fatalf("OutageFraction = %g, want in (0,1)", frac)
	}
}

package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCurveRegions(t *testing.T) {
	c := Curve{Slack: 0.3, Knee: 0.7, LossAtKnee: 0.4, CollapseExp: 2}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Slack region: flat at 1.
	for _, d := range []float64{0, 0.1, 0.3} {
		if got := c.Performance(d); got != 1 {
			t.Errorf("Performance(%v) = %v, want 1", d, got)
		}
	}
	// Linear region: midpoint has half the knee loss.
	if got := c.Performance(0.5); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("Performance(0.5) = %v, want 0.8", got)
	}
	if got := c.Performance(0.7); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("Performance(knee) = %v, want 0.6", got)
	}
	// Collapse region: below linear extrapolation, reaching 0 at 1.
	if got := c.Performance(0.9); got >= 0.6 || got <= 0 {
		t.Errorf("Performance(0.9) = %v, want in (0, 0.6)", got)
	}
	if got := c.Performance(1); got != 0 {
		t.Errorf("Performance(1) = %v, want 0", got)
	}
	if got := c.Performance(1.5); got != 0 {
		t.Errorf("clamp above 1: %v", got)
	}
	if got := c.Performance(-0.5); got != 1 {
		t.Errorf("clamp below 0: %v", got)
	}
}

func TestDegenerateKneeEqualsSlack(t *testing.T) {
	c := Curve{Slack: 0.5, Knee: 0.5, LossAtKnee: 0.2, CollapseExp: 1}
	// At the boundary the slack region wins (performance 1); just past it
	// the collapse region starts from 1-LossAtKnee.
	if got := c.Performance(0.5); got != 1 {
		t.Errorf("Performance at slack boundary = %v, want 1", got)
	}
	if got := c.Performance(0.500001); got > 0.8+1e-6 {
		t.Errorf("Performance just past degenerate knee = %v, want <= 0.8", got)
	}
}

func TestValidate(t *testing.T) {
	bad := []Curve{
		{Slack: -0.1, Knee: 0.5},
		{Slack: 0.6, Knee: 0.5},
		{Slack: 0.1, Knee: 1.1},
		{Slack: 0.1, Knee: 0.5, LossAtKnee: 1.5},
		{Slack: 0.1, Knee: 0.5, LossAtKnee: 0.5, CollapseExp: -1},
		{Slack: math.NaN(), Knee: 0.5},
		{Slack: 0.1, Knee: math.NaN()},
		{Slack: 0.1, Knee: 0.5, LossAtKnee: math.NaN()},
		{Slack: 0.1, Knee: 0.5, LossAtKnee: -3},
		{Slack: 0.1, Knee: 0.5, CollapseExp: math.NaN()},
		{Slack: 0.1, Knee: 0.5, CollapseExp: math.Inf(1)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, c)
		}
	}
	for name, c := range Profiles {
		if err := c.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", name, err)
		}
	}
	if err := WorstCaseLinear.Validate(); err != nil {
		t.Errorf("worst-case linear invalid: %v", err)
	}
}

func TestWorstCaseLinear(t *testing.T) {
	for _, d := range []float64{0, 0.25, 0.5, 0.75} {
		if got := WorstCaseLinear.Performance(d); math.Abs(got-(1-d)) > 1e-9 {
			t.Errorf("worst case at %v = %v, want %v", d, got, 1-d)
		}
	}
}

func TestFigure3Ordering(t *testing.T) {
	if SpecJBB.Performance(0.05) >= 1 {
		t.Error("SpecJBB should degrade immediately (no slack)")
	}
	if Memcached.Performance(0.3) != 1 {
		t.Error("Memcached should still be unaffected at 30% deflation")
	}
	d := 0.5
	sj, kc, mc := SpecJBB.Performance(d), Kcompile.Performance(d), Memcached.Performance(d)
	if !(mc > kc && kc > sj) {
		t.Errorf("at 50%% deflation want memcached > kcompile > specjbb, got %v, %v, %v", mc, kc, sj)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("specjbb"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown profile should fail")
	}
}

func TestQuickCurveMonotone(t *testing.T) {
	f := func(sRaw, kRaw, lRaw, eRaw uint8, d1Raw, d2Raw uint8) bool {
		s := float64(sRaw) / 255 * 0.8
		k := s + float64(kRaw)/255*(1-s)
		c := Curve{
			Slack: s, Knee: k,
			LossAtKnee:  float64(lRaw) / 255,
			CollapseExp: 0.5 + float64(eRaw)/64,
		}
		if c.Validate() != nil {
			return true
		}
		d1 := float64(d1Raw) / 255
		d2 := float64(d2Raw) / 255
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		p1, p2 := c.Performance(d1), c.Performance(d2)
		return p1 >= p2-1e-9 && p1 <= 1 && p2 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

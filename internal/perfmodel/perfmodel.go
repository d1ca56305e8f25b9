// Package perfmodel captures the abstract application-behaviour model of
// Section 3.1 (Figure 2): performance under deflation has a slack region
// (no impact), a linear degradation region, and a knee beyond which
// performance collapses. Calibrated per-application curves reproduce
// Figure 3, and the worst-case linear assumption used by the cluster
// policies ("our policies assume the worst-case linear correlation
// between deflation and performance", Section 5) is available as
// WorstCaseLinear.
package perfmodel

import (
	"fmt"
	"math"
)

// Curve is a slack/linear/knee deflation-response curve. Deflation d and
// performance are normalised to [0, 1]; Performance(0) = 1.
type Curve struct {
	// Slack is the deflation fraction that can be reclaimed with no
	// performance impact (the flat region of Figure 2).
	Slack float64
	// Knee is the deflation fraction where collapse begins.
	Knee float64
	// LossAtKnee is the performance lost by the time deflation reaches
	// the knee (the linear region's total drop).
	LossAtKnee float64
	// CollapseExp shapes the post-knee region: performance falls like
	// ((1-d)/(1-knee))^CollapseExp toward zero at d=1. Values > 1 give
	// the precipitous drop of Figure 2.
	CollapseExp float64
}

// Validate reports a curve whose fields leave their ranges, naming the
// field: slack, knee and loss at the knee are fractions with
// slack <= knee, and the collapse exponent is finite and non-negative.
// Every comparison is written so that NaN fails it.
func (c Curve) Validate() error {
	if !(c.Slack >= 0 && c.Slack <= 1) {
		return fmt.Errorf("perfmodel: slack %g outside [0,1]", c.Slack)
	}
	if !(c.Knee >= c.Slack && c.Knee <= 1) {
		return fmt.Errorf("perfmodel: knee %g outside [slack,1]", c.Knee)
	}
	if !(c.LossAtKnee >= 0 && c.LossAtKnee <= 1) {
		return fmt.Errorf("perfmodel: loss at knee %g outside [0,1]", c.LossAtKnee)
	}
	if !(c.CollapseExp >= 0 && !math.IsInf(c.CollapseExp, 1)) {
		return fmt.Errorf("perfmodel: collapse exponent %g is not finite and non-negative", c.CollapseExp)
	}
	return nil
}

// Performance returns normalised performance (0..1] at deflation d. d is
// clamped into [0,1].
func (c Curve) Performance(d float64) float64 {
	if d <= 0 {
		return 1
	}
	if d >= 1 {
		return 0
	}
	switch {
	case d <= c.Slack:
		return 1
	case d <= c.Knee:
		if c.Knee == c.Slack {
			return 1 - c.LossAtKnee
		}
		return 1 - c.LossAtKnee*(d-c.Slack)/(c.Knee-c.Slack)
	default:
		atKnee := 1 - c.LossAtKnee
		frac := (1 - d) / (1 - c.Knee)
		return atKnee * math.Pow(frac, c.CollapseExp)
	}
}

// DeflationFor inverts Performance analytically: the largest deflation
// d in [0,1] whose performance is still at least perf. It is the
// latency-aware policy's question — "how far can this VM deflate before
// its service rate drops below what its load needs?" — answered per
// region of the curve, so the hot path never searches. perf >= 1 means
// only the slack region qualifies; perf <= 0 means any deflation does.
func (c Curve) DeflationFor(perf float64) float64 {
	if perf >= 1 {
		return c.Slack
	}
	if perf <= 0 {
		return 1
	}
	atKnee := 1 - c.LossAtKnee
	if perf >= atKnee {
		// Linear region: perf = 1 - loss*(d-slack)/(knee-slack).
		if c.LossAtKnee <= 0 {
			return c.Knee
		}
		return c.Slack + (1-perf)*(c.Knee-c.Slack)/c.LossAtKnee
	}
	// Post-knee collapse: perf = atKnee * ((1-d)/(1-knee))^E.
	if atKnee <= 0 || c.Knee >= 1 {
		return c.Knee
	}
	if c.CollapseExp <= 0 {
		// Flat post-knee region at atKnee performance: every d < 1
		// keeps it, and d = 1 is zero performance by definition.
		return 1
	}
	d := 1 - (1-c.Knee)*math.Pow(perf/atKnee, 1/c.CollapseExp)
	if d > 1 {
		d = 1
	}
	if d < c.Knee {
		d = c.Knee
	}
	return d
}

// EffectiveCapacity scales a nominal capacity (cores) by the curve's
// performance at the allocation's deflation level: the service rate a
// VM deflated from fullCap to alloc actually delivers. This is the
// allocation -> service-rate map the SLO metrics are built on.
func (c Curve) EffectiveCapacity(fullCap, alloc float64) float64 {
	if fullCap <= 0 {
		return 0
	}
	return fullCap * c.Performance(1-alloc/fullCap)
}

// WorstCaseLinear is the conservative model the cluster-level policies
// assume (Section 5): no slack, performance = 1 - d.
var WorstCaseLinear = Curve{Slack: 0, Knee: 1, LossAtKnee: 1, CollapseExp: 1}

// Calibrated per-application curves reproducing Figure 3 ("application
// performance when all resources are deflated in the same proportion").
var (
	// SpecJBB exhibits no slack at all (Section 3.1) and degrades
	// steadily before collapsing.
	SpecJBB = Curve{Slack: 0, Knee: 0.60, LossAtKnee: 0.50, CollapseExp: 2.0}
	// Kcompile (kernel compile) is CPU-bound: a small slack from I/O
	// phases, then roughly proportional slowdown.
	Kcompile = Curve{Slack: 0.12, Knee: 0.75, LossAtKnee: 0.45, CollapseExp: 1.5}
	// Memcached has large slack (over-provisioned memory, tiny CPU needs)
	// and tolerates deep deflation (Section 3.2.2, Figure 3).
	Memcached = Curve{Slack: 0.35, Knee: 0.80, LossAtKnee: 0.20, CollapseExp: 2.5}
)

// Profiles names the Figure 3 curves.
var Profiles = map[string]Curve{
	"specjbb":   SpecJBB,
	"kcompile":  Kcompile,
	"memcached": Memcached,
}

// ByName returns a named profile.
func ByName(name string) (Curve, error) {
	c, ok := Profiles[name]
	if !ok {
		return Curve{}, fmt.Errorf("perfmodel: unknown profile %q", name)
	}
	return c, nil
}

package perfmodel

// Closed-form processor-sharing latency model. The cluster simulator's
// sample pass needs per-VM latency at every 5-minute boundary
// for up to a million VMs; simulating a PSStation per VM there would
// blow both the wall clock and the zero-allocation gate, so the hot
// path uses the steady-state M/G/1-PS sojourn formula the station
// converges to instead (TestClosedFormMatchesStation, beside the
// station in package queueing, holds the two together).
//
// For an egalitarian PS server with service capacity C (cores) and
// offered load λw̄ (core-seconds of demand per second), the expected
// sojourn of a job with work w is w/(C - load): the virtual-time
// construction's long-run average. The deflation slowdown the SLO
// metrics meter is therefore the sojourn ratio between the deflated
// and the undeflated server — (fullCap - load)/(effCap - load) — which
// is exactly 1 for an undeflated VM, so SLO violations isolate
// deflation's effect rather than re-counting plain overload.

// PSSlowdownRatio returns the relative response-time multiplier a VM
// deflated from fullCap to effective capacity effCap imposes on its
// offered load (all in cores): the M/G/1-PS sojourn ratio
// (fullCap-load)/(effCap-load), clamped into [1, maxSlowdown]. A VM at
// full capacity (effCap >= fullCap) or with no load reports 1; an
// effective capacity at or below the offered load saturates at
// maxSlowdown.
func PSSlowdownRatio(load, fullCap, effCap, maxSlowdown float64) float64 {
	if maxSlowdown < 1 {
		maxSlowdown = 1
	}
	if load <= 0 || effCap >= fullCap {
		return 1
	}
	if effCap <= load {
		return maxSlowdown
	}
	r := (fullCap - load) / (effCap - load)
	if r > maxSlowdown {
		return maxSlowdown
	}
	if r < 1 {
		return 1
	}
	return r
}

// PSCapacityForSlowdown inverts PSSlowdownRatio: the minimum effective
// capacity (cores) that keeps the relative slowdown at or below s for
// the given offered load. With no load any capacity is latency-safe
// (the metric reports 1), so the answer is 0; a load at or above the
// full capacity is overloaded even undeflated, so no deflation is safe
// and the answer is fullCap.
func PSCapacityForSlowdown(load, fullCap, s float64) float64 {
	if s < 1 {
		s = 1
	}
	if load <= 0 {
		return 0
	}
	if load >= fullCap {
		return fullCap
	}
	return load + (fullCap-load)/s
}

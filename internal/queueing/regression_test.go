package queueing

import (
	"math"
	"math/rand"
	"testing"

	"vmdeflate/internal/perfmodel"
	"vmdeflate/internal/sim"
)

// TestAdvanceIsMonotone is the regression test for the lastT rollback
// bug: a stale (non-monotone) now used to move lastT backward, so the
// next advance re-credited the interval and double-counted service.
// The clock must clamp: a stale advance is a no-op, and subsequent
// progress is credited exactly once.
func TestAdvanceIsMonotone(t *testing.T) {
	eng := sim.NewEngine()
	s := NewPSStation(eng, 1)
	s.jobs = append(s.jobs, &Job{work: 100, vFinish: 100})
	s.live = 1

	s.advance(10)
	if s.lastT != 10 || math.Abs(s.vclock-10) > 1e-12 {
		t.Fatalf("after advance(10): lastT=%v vclock=%v, want 10, 10", s.lastT, s.vclock)
	}
	// Stale time: must not rewind the clock or credit service.
	s.advance(5)
	if s.lastT != 10 || math.Abs(s.vclock-10) > 1e-12 {
		t.Fatalf("after stale advance(5): lastT=%v vclock=%v, want 10, 10", s.lastT, s.vclock)
	}
	// Resumed progress is credited once: 10 -> 15 is 5 more units, not
	// the 10 the rolled-back clock used to hand out.
	s.advance(15)
	if s.lastT != 15 || math.Abs(s.vclock-15) > 1e-12 {
		t.Fatalf("after advance(15): lastT=%v vclock=%v, want 15, 15 (double-counted service?)", s.lastT, s.vclock)
	}
}

// TestSetPerJobCapRejectsInvalid pins the new error contract: zero and
// negative caps are rejected instead of being silently pinned to 1e-9,
// and the previous cap stays in force.
func TestSetPerJobCapRejectsInvalid(t *testing.T) {
	eng := sim.NewEngine()
	s := NewPSStation(eng, 4)
	for _, c := range []float64{0, -1} {
		if err := s.SetPerJobCap(c); err == nil {
			t.Errorf("SetPerJobCap(%g) should fail", c)
		}
	}
	if s.perJobCap != 1 {
		t.Errorf("rejected cap mutated state: perJobCap = %v, want 1", s.perJobCap)
	}
	var d float64
	eng.At(0, func(float64) { s.Submit(2, func(now float64) { d = now }) })
	drain(eng)
	if math.Abs(d-2) > 1e-9 {
		t.Errorf("station broken after rejected cap: departed %v, want 2", d)
	}
}

// TestWorkConservationUnderChurn is the property test of the
// virtual-time construction: under random submits, cancellations and
// capacity changes, the work completed can never exceed the capacity
// integrated over elapsed time (within the departure-snapping
// tolerance). A rolled-back clock breaks exactly this bound by crediting
// the same interval twice.
func TestWorkConservationUnderChurn(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		s := NewPSStation(eng, 2)

		var completedWork, capIntegral float64
		lastCapT, curCap := 0.0, 2.0
		var live []*Job

		var step func(now float64)
		n := 0
		step = func(now float64) {
			capIntegral += (now - lastCapT) * curCap
			lastCapT = now
			if n >= 400 {
				return
			}
			n++
			switch rng.Intn(4) {
			case 0, 1: // submit
				w := 0.2 + 2*rng.Float64()
				var j *Job
				j = s.Submit(w, func(float64) { completedWork += j.work })
				live = append(live, j)
			case 2: // cancel a random outstanding job
				if len(live) > 0 {
					i := rng.Intn(len(live))
					s.Cancel(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 3: // deflate or reinflate
				curCap = 0.5 + 3*rng.Float64()
				s.SetCapacity(curCap)
			}
			eng.After(0.1+rng.Float64(), step)
		}
		eng.At(0, step)
		drain(eng)
		capIntegral += (eng.Now() - lastCapT) * curCap

		// tol: each of the up-to-400 departures may snap the virtual
		// clock forward by < 1e-9*(1+vclock) service units per job.
		tol := 1e-6 * (1 + capIntegral)
		if completedWork > capIntegral+tol {
			t.Errorf("seed %d: completed %v core-seconds of work with only %v capacity-time available",
				seed, completedWork, capIntegral)
		}
		if s.Completed == 0 {
			t.Errorf("seed %d: degenerate run, nothing completed", seed)
		}
	}
}

// TestClosedFormMatchesStation ties the hot-path closed form to the
// discrete-event station it approximates: for a persistent Poisson
// stream, the measured sojourn ratio between a deflated and an
// undeflated station must match perfmodel.PSSlowdownRatio within simulation
// noise.
func TestClosedFormMatchesStation(t *testing.T) {
	const (
		fullCap = 4.0
		effCap  = 2.0
		lambda  = 6.0 // jobs/sec
		meanW   = 0.2 // core-seconds each -> load 1.2 cores
	)
	load := lambda * meanW
	meanSojourn := func(cap float64) float64 {
		eng := sim.NewEngine()
		rng := rand.New(rand.NewSource(11))
		s := NewPSStation(eng, cap)
		if err := s.SetPerJobCap(cap); err != nil {
			t.Fatal(err)
		}
		var sum float64
		var n int
		var arrive func(now float64)
		submitted := 0
		arrive = func(now float64) {
			if submitted >= 60000 {
				return
			}
			submitted++
			start := now
			s.Submit(rng.ExpFloat64()*meanW, func(done float64) {
				sum += done - start
				n++
			})
			eng.After(rng.ExpFloat64()/lambda, arrive)
		}
		eng.At(0, arrive)
		drain(eng)
		return sum / float64(n)
	}
	got := meanSojourn(effCap) / meanSojourn(fullCap)
	want := perfmodel.PSSlowdownRatio(load, fullCap, effCap, 100)
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("measured slowdown ratio %v, closed form %v (±10%%)", got, want)
	}
}

// TestPSCapacityForSlowdownInverts checks the policy-side inverse
// against the metric-side forward map on a grid: deflating exactly to
// the returned capacity never violates the threshold, and any
// materially smaller capacity does.
func TestPSCapacityForSlowdownInverts(t *testing.T) {
	for _, load := range []float64{0, 0.5, 2, 3.9} {
		for _, s := range []float64{1, 1.5, 3, 10} {
			const fullCap = 4.0
			c := perfmodel.PSCapacityForSlowdown(load, fullCap, s)
			if got := perfmodel.PSSlowdownRatio(load, fullCap, c, 1e9); got > s+1e-9 {
				t.Errorf("load=%g s=%g: capacity %g still violates (ratio %g)", load, s, c, got)
			}
			if load > 0 && c > load+1e-6 && s > 1 {
				if got := perfmodel.PSSlowdownRatio(load, fullCap, c*0.95, 1e9); got <= s {
					t.Errorf("load=%g s=%g: capacity %g not minimal (0.95x ratio %g <= %g)", load, s, c, got, s)
				}
			}
		}
	}
}

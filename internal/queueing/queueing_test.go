package queueing

import (
	"math"
	"math/rand"
	"testing"

	"vmdeflate/internal/sim"
	"vmdeflate/internal/stats"
)

func TestSingleJobRunsAtPerJobCap(t *testing.T) {
	eng := sim.NewEngine()
	s := NewPSStation(eng, 8)
	var doneAt float64
	eng.At(0, func(float64) {
		s.Submit(2.0, func(now float64) { doneAt = now })
	})
	drain(eng)
	// One job capped at 1 core: 2 core-seconds takes 2 seconds.
	if math.Abs(doneAt-2) > 1e-9 {
		t.Errorf("doneAt = %v, want 2", doneAt)
	}
	if s.Completed != 1 {
		t.Errorf("Completed = %d", s.Completed)
	}
}

func TestTwoJobsShareWhenCapacityBinds(t *testing.T) {
	eng := sim.NewEngine()
	s := NewPSStation(eng, 1) // single core
	var d1, d2 float64
	eng.At(0, func(float64) {
		s.Submit(1.0, func(now float64) { d1 = now })
		s.Submit(1.0, func(now float64) { d2 = now })
	})
	drain(eng)
	// Equal sharing of 1 core: both finish at t=2.
	if math.Abs(d1-2) > 1e-9 || math.Abs(d2-2) > 1e-9 {
		t.Errorf("departures = %v, %v; want 2, 2", d1, d2)
	}
}

func TestUnequalJobsDepartInWorkOrder(t *testing.T) {
	eng := sim.NewEngine()
	s := NewPSStation(eng, 1)
	var dShort, dLong float64
	eng.At(0, func(float64) {
		s.Submit(1.0, func(now float64) { dShort = now })
		s.Submit(3.0, func(now float64) { dLong = now })
	})
	drain(eng)
	// Shared until short departs: short gets 1 unit of service at rate
	// 1/2 -> departs at t=2. Long then has 2 units left at rate 1 ->
	// departs at t=4.
	if math.Abs(dShort-2) > 1e-9 {
		t.Errorf("short departed at %v, want 2", dShort)
	}
	if math.Abs(dLong-4) > 1e-9 {
		t.Errorf("long departed at %v, want 4", dLong)
	}
}

func TestAmpleCapacityNoQueueing(t *testing.T) {
	eng := sim.NewEngine()
	s := NewPSStation(eng, 100)
	times := make([]float64, 0, 3)
	eng.At(0, func(float64) {
		for i := 0; i < 3; i++ {
			s.Submit(1.5, func(now float64) { times = append(times, now) })
		}
	})
	drain(eng)
	for _, d := range times {
		if math.Abs(d-1.5) > 1e-9 {
			t.Errorf("with ample capacity every job takes its own work time: %v", times)
		}
	}
}

func TestLateArrival(t *testing.T) {
	eng := sim.NewEngine()
	s := NewPSStation(eng, 1)
	var d1, d2 float64
	eng.At(0, func(float64) {
		s.Submit(2.0, func(now float64) { d1 = now })
	})
	eng.At(1, func(float64) {
		s.Submit(0.5, func(now float64) { d2 = now })
	})
	drain(eng)
	// Job1 alone until t=1 (1 unit done). Then shared: job2 needs 0.5 at
	// rate 0.5 -> departs t=2; job1 has 0.5 left after sharing (0.5 done
	// in [1,2]), runs alone at rate 1 -> departs t=2.5.
	if math.Abs(d2-2) > 1e-9 {
		t.Errorf("d2 = %v, want 2", d2)
	}
	if math.Abs(d1-2.5) > 1e-9 {
		t.Errorf("d1 = %v, want 2.5", d1)
	}
}

func TestCancel(t *testing.T) {
	eng := sim.NewEngine()
	s := NewPSStation(eng, 1)
	var d1 float64
	fired := false
	eng.At(0, func(float64) {
		s.Submit(2.0, func(now float64) { d1 = now })
		j2 := s.Submit(2.0, func(now float64) { fired = true })
		eng.At(1, func(float64) {
			if !s.Cancel(j2) {
				t.Error("cancel should succeed")
			}
		})
	})
	drain(eng)
	if fired {
		t.Error("cancelled job must not complete")
	}
	// Job1: rate 1/2 in [0,1] (0.5 done), rate 1 after -> departs 2.5.
	if math.Abs(d1-2.5) > 1e-9 {
		t.Errorf("d1 = %v, want 2.5", d1)
	}
	if s.Cancelled != 1 || s.Completed != 1 {
		t.Errorf("counters = %d cancelled, %d completed", s.Cancelled, s.Completed)
	}
}

func TestCancelCompletedIsNoOp(t *testing.T) {
	eng := sim.NewEngine()
	s := NewPSStation(eng, 1)
	var j *Job
	eng.At(0, func(float64) { j = s.Submit(1, nil) })
	drain(eng)
	if s.Cancel(j) {
		t.Error("cancelling a completed job should return false")
	}
	if s.Cancel(nil) {
		t.Error("cancelling nil should return false")
	}
}

func TestSetCapacityMidService(t *testing.T) {
	eng := sim.NewEngine()
	s := NewPSStation(eng, 2)
	var d1, d2 float64
	eng.At(0, func(float64) {
		s.Submit(2.0, func(now float64) { d1 = now })
		s.Submit(2.0, func(now float64) { d2 = now })
	})
	// Deflate to half capacity at t=1.
	eng.At(1, func(float64) { s.SetCapacity(1) })
	drain(eng)
	// [0,1]: each at rate 1 (capacity 2, 2 jobs): 1 unit done each.
	// After: each at rate 0.5, 1 unit left -> 2 more seconds -> t=3.
	if math.Abs(d1-3) > 1e-9 || math.Abs(d2-3) > 1e-9 {
		t.Errorf("departures = %v, %v; want 3, 3", d1, d2)
	}
}

func TestZeroCapacityStarves(t *testing.T) {
	eng := sim.NewEngine()
	s := NewPSStation(eng, 1)
	done := false
	eng.At(0, func(float64) {
		s.Submit(1.0, func(now float64) { done = true })
	})
	eng.At(0.5, func(float64) { s.SetCapacity(0) })
	eng.At(10, func(float64) { s.SetCapacity(1) })
	drain(eng)
	if !done {
		t.Fatal("job should complete after capacity returns")
	}
	// 0.5 done before starvation, 0.5 after t=10 -> departs 10.5.
	if eng.Now() < 10.5-1e-9 {
		t.Errorf("final time = %v, want >= 10.5", eng.Now())
	}
}

func TestPerJobCap(t *testing.T) {
	eng := sim.NewEngine()
	s := NewPSStation(eng, 8)
	if err := s.SetPerJobCap(2); err != nil { // multi-threaded handler can use 2 cores
		t.Fatal(err)
	}
	var d float64
	eng.At(0, func(float64) {
		s.Submit(4.0, func(now float64) { d = now })
	})
	drain(eng)
	if math.Abs(d-2) > 1e-9 {
		t.Errorf("departed at %v, want 2 (4 core-sec at 2 cores)", d)
	}
}

// M/M/1-PS sanity: mean sojourn time should match S/(1-rho) within
// simulation noise.
func TestMM1PSMeanSojourn(t *testing.T) {
	eng := sim.NewEngine()
	rng := rand.New(rand.NewSource(42))
	s := NewPSStation(eng, 1)
	const (
		lambda = 0.7
		meanS  = 1.0
	)
	var sojourns []float64
	var arrive func(now float64)
	n := 0
	arrive = func(now float64) {
		if n >= 100000 {
			return
		}
		n++
		start := now
		work := rng.ExpFloat64() * meanS
		s.Submit(work, func(done float64) {
			sojourns = append(sojourns, done-start)
		})
		eng.After(rng.ExpFloat64()/lambda, arrive)
	}
	eng.At(0, arrive)
	drain(eng)
	mean := stats.Mean(sojourns)
	want := meanS / (1 - lambda) // PS: insensitive to service distribution
	if math.Abs(mean-want)/want > 0.08 {
		t.Errorf("M/M/1-PS mean sojourn = %v, want %v (±8%%)", mean, want)
	}
}

// Work conservation: total work submitted equals capacity integrated
// over busy time for a single saturated station.
func TestWorkConservation(t *testing.T) {
	eng := sim.NewEngine()
	rng := rand.New(rand.NewSource(7))
	s := NewPSStation(eng, 2)
	if err := s.SetPerJobCap(2); err != nil {
		t.Fatal(err)
	}
	totalWork := 0.0
	eng.At(0, func(float64) {
		for i := 0; i < 50; i++ {
			w := 0.1 + rng.Float64()
			totalWork += w
			s.Submit(w, nil)
		}
	})
	drain(eng)
	// Saturated the whole run at capacity 2: finish time = work/2.
	want := totalWork / 2
	if math.Abs(eng.Now()-want)/want > 1e-6 {
		t.Errorf("makespan = %v, want %v", eng.Now(), want)
	}
	if s.Completed != 50 {
		t.Errorf("Completed = %d", s.Completed)
	}
}

// SetCapacity changes the station's capacity (a deflation or reinflation
// event) effective immediately. The figures size a station once, at
// NewPSStation; the tests resize one mid-run.
func (s *PSStation) SetCapacity(c float64) {
	s.advance(s.eng.Now())
	if c < 0 {
		c = 0
	}
	s.capacity = c
	s.reschedule()
}

// drain runs eng's events until its queue is empty.
func drain(eng *sim.Engine) {
	for eng.Step() {
	}
}

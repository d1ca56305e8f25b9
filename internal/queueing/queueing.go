// Package queueing provides the processor-sharing queueing station that
// the testbed application models (Wikipedia, DeathStarBench social
// network, HAProxy replicas) are built from. A PSStation models a
// (possibly deflated) VM or container CPU: in-flight requests share the
// station's capacity equally, each capped at one core (a web request is
// single-threaded), which is exactly how cgroup CPU bandwidth control
// degrades a deflated VM.
//
// The implementation uses the classic virtual-time construction for
// egalitarian processor sharing, so arrivals, departures, cancellations
// (request timeouts) and capacity changes (deflation events) are all
// O(log n) without per-tick scanning.
package queueing

import (
	"fmt"
	"math"

	"container/heap"

	"vmdeflate/internal/sim"
)

// Job is one request in service at a station.
type Job struct {
	id      uint64
	work    float64 // seconds of CPU demand at rate 1
	vFinish float64 // virtual time at which service completes
	onDone  func(now float64)
	dead    bool
	index   int // heap index, -1 when not queued
}

// Work returns the job's total service demand in core-seconds.
func (j *Job) Work() float64 { return j.work }

type jobHeap []*Job

func (h jobHeap) Len() int           { return len(h) }
func (h jobHeap) Less(i, j int) bool { return h[i].vFinish < h[j].vFinish }
func (h jobHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *jobHeap) Push(x any)        { j := x.(*Job); j.index = len(*h); *h = append(*h, j) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	*h = old[:n-1]
	return j
}

// PSStation is an egalitarian processor-sharing server with total
// capacity C (cores) and a per-job rate cap (default 1 core).
type PSStation struct {
	eng       *sim.Engine
	capacity  float64
	perJobCap float64

	jobs    jobHeap
	live    int     // number of non-dead jobs
	vclock  float64 // accumulated per-job attained service
	lastT   float64
	nextID  uint64
	departH sim.Handle

	// Completed counts jobs that finished service; Cancelled counts jobs
	// removed before completion (timeouts).
	Completed uint64
	Cancelled uint64
}

// NewPSStation creates a station on engine eng with the given capacity in
// cores. The per-job rate cap defaults to 1 core.
func NewPSStation(eng *sim.Engine, capacity float64) *PSStation {
	return &PSStation{eng: eng, capacity: capacity, perJobCap: 1, lastT: eng.Now()}
}

// SetPerJobCap overrides the per-job service rate cap (cores). Useful
// for modelling multi-threaded request handlers. A cap must be
// positive: zero or negative caps are configuration errors (the old
// behaviour silently pinned them to 1e-9, which starved the station
// while looking healthy).
func (s *PSStation) SetPerJobCap(c float64) error {
	if c <= 0 {
		return fmt.Errorf("queueing: per-job cap %g must be positive", c)
	}
	s.advance(s.eng.Now())
	s.perJobCap = c
	s.reschedule()
	return nil
}

// Capacity returns the station's current capacity.
func (s *PSStation) Capacity() float64 { return s.capacity }

// SetCapacity changes the station's capacity (a deflation or reinflation
// event) effective immediately.
func (s *PSStation) SetCapacity(c float64) {
	s.advance(s.eng.Now())
	if c < 0 {
		c = 0
	}
	s.capacity = c
	s.reschedule()
}

// InFlight returns the number of jobs currently in service.
func (s *PSStation) InFlight() int { return s.live }

// rate returns the current per-job service rate.
func (s *PSStation) rate() float64 {
	if s.live == 0 {
		return 0
	}
	r := s.capacity / float64(s.live)
	if r > s.perJobCap {
		r = s.perJobCap
	}
	return r
}

// advance progresses the virtual clock to wall time now. Time is
// clamped monotonically: a stale now must not move lastT backward, or
// the next advance would re-credit the interval and double-count
// service.
func (s *PSStation) advance(now float64) {
	if now > s.lastT {
		s.vclock += (now - s.lastT) * s.rate()
		s.lastT = now
	}
}

// Submit enters a job with the given CPU demand (core-seconds); onDone
// fires when service completes. It returns a handle usable to cancel the
// job (e.g. on request timeout).
func (s *PSStation) Submit(work float64, onDone func(now float64)) *Job {
	now := s.eng.Now()
	s.advance(now)
	if work < 0 {
		work = 0
	}
	j := &Job{
		id:      s.nextID,
		work:    work,
		vFinish: s.vclock + work,
		onDone:  onDone,
		index:   -1,
	}
	s.nextID++
	heap.Push(&s.jobs, j)
	s.live++
	s.reschedule()
	return j
}

// Cancel removes a job before completion. It reports whether the job was
// still in service.
func (s *PSStation) Cancel(j *Job) bool {
	if j == nil || j.dead || j.index < 0 {
		return false
	}
	now := s.eng.Now()
	s.advance(now)
	j.dead = true
	heap.Remove(&s.jobs, j.index)
	s.live--
	s.Cancelled++
	s.reschedule()
	return true
}

// reschedule (re)arms the next-departure event.
func (s *PSStation) reschedule() {
	s.departH.Cancel()
	if s.live == 0 || len(s.jobs) == 0 {
		return
	}
	r := s.rate()
	if r <= 0 {
		return // starved: no progress until capacity returns
	}
	next := s.jobs[0]
	dt := (next.vFinish - s.vclock) / r
	if dt < 0 {
		dt = 0
	}
	h, err := s.eng.After(dt, s.depart)
	if err == nil {
		s.departH = h
	}
}

// tol is the virtual-clock comparison tolerance. It must be relative:
// once vclock grows large, an absolute epsilon falls below one ULP and a
// due departure could chase its own rounding error forever.
func (s *PSStation) tol() float64 {
	return 1e-9 * (1 + math.Abs(s.vclock))
}

// depart completes every job whose virtual finish time has been reached.
func (s *PSStation) depart(now float64) {
	s.advance(now)
	// Progress guarantee: this event was scheduled for the head job's
	// finish; if rounding left the virtual clock a hair short, snap it
	// forward (ages every in-flight job equally by < tol service units).
	if len(s.jobs) > 0 && s.jobs[0].vFinish > s.vclock && s.jobs[0].vFinish-s.vclock <= s.tol() {
		s.vclock = s.jobs[0].vFinish
	}
	for len(s.jobs) > 0 && s.jobs[0].vFinish <= s.vclock {
		j := heap.Pop(&s.jobs).(*Job)
		s.live--
		s.Completed++
		if j.onDone != nil {
			j.onDone(now)
		}
	}
	s.reschedule()
}

// Utilization returns the instantaneous fraction of capacity in use.
func (s *PSStation) Utilization() float64 {
	if s.capacity <= 0 {
		if s.live > 0 {
			return 1
		}
		return 0
	}
	used := float64(s.live) * s.perJobCap
	return math.Min(1, used/s.capacity)
}

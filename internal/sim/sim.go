// Package sim is a small deterministic discrete-event simulation kernel.
//
// It backs the request-level models of the testbed experiments (Section
// 7): the processor-sharing stations of package queueing, the request
// generators of package workload and the web applications of package
// apps (Figures 16-19). The cluster simulator (package clustersim) runs
// its own typed event heap, and the hypervisor substrate keeps no clock.
// Events are ordered by virtual time with FIFO tie-breaking, so runs are
// reproducible.
package sim

import (
	"container/heap"
	"errors"
)

// Event is a callback scheduled at a virtual time.
type Event func(now float64)

type item struct {
	at   float64
	seq  uint64
	fn   Event
	dead bool
}

type eventQueue []*item

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*item)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// Handle allows a scheduled event to be cancelled.
type Handle struct{ it *item }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.it != nil {
		h.it.dead = true
	}
}

// ErrPast is returned when scheduling an event before the current time.
var ErrPast = errors.New("sim: event scheduled in the past")

// Engine drives a simulation. The zero value is not usable; call NewEngine.
type Engine struct {
	now   float64
	seq   uint64
	queue eventQueue
}

// NewEngine creates an engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run at absolute virtual time t.
func (e *Engine) At(t float64, fn Event) (Handle, error) {
	if t < e.now {
		return Handle{}, ErrPast
	}
	it := &item{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, it)
	return Handle{it}, nil
}

// After schedules fn to run d time units from now.
func (e *Engine) After(d float64, fn Event) (Handle, error) {
	if d < 0 {
		return Handle{}, ErrPast
	}
	return e.At(e.now+d, fn)
}

// Step runs the single earliest event. It returns false when the queue is
// empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		it := heap.Pop(&e.queue).(*item)
		if it.dead {
			continue
		}
		e.now = it.at
		it.fn(e.now)
		return true
	}
	return false
}

// RunUntil executes events with time <= t, then advances the clock to t.
// Events scheduled after t remain queued.
func (e *Engine) RunUntil(t float64) {
	for len(e.queue) > 0 {
		// Peek.
		next := e.queue[0]
		if next.dead {
			heap.Pop(&e.queue)
			continue
		}
		if next.at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

package clustersim

import (
	"fmt"
	"math/rand"
	"testing"

	"vmdeflate/internal/trace"
)

// TestCalendarQueueMatchesHeapRandomized is the randomized differential
// property: any interleaving of pushes and pops drains in exactly the
// same (time, kind, seq) order from the calendar and the heap. The
// workload deliberately includes same-instant collisions across every
// kind and adjacent seq values — the tie cases the total order exists
// for — plus time-warped pushes below the current scan position.
func TestCalendarQueueMatchesHeapRandomized(t *testing.T) {
	kinds := []eventKind{evSample, evDeparture, evRestore, evRevoke, evResize, evArrival}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		cal := newCalendarQueue(8, 1000)
		hp := &heapQueue{}
		seq := 0
		mk := func() simEvent {
			// Quantised times force heavy same-instant collisions; a few
			// scattered huge times exercise the year filter and the
			// direct-scan fallback.
			at := float64(rng.Intn(50)) * 100
			if rng.Intn(20) == 0 {
				at = float64(rng.Intn(1000000)) + rng.Float64()
			}
			e := simEvent{at: at, kind: kinds[rng.Intn(len(kinds))], seq: seq}
			if rng.Intn(3) == 0 {
				e.seq = seq - rng.Intn(2) // adjacent-seq ties at same instant
			}
			seq++
			return e
		}
		live := 0
		for op := 0; op < 20000; op++ {
			if live == 0 || rng.Intn(3) != 0 {
				e := mk()
				cal.push(e)
				hp.push(e)
				live++
				continue
			}
			if cal.empty() != hp.empty() {
				t.Fatalf("seed %d op %d: empty() diverges", seed, op)
			}
			cp, hpk := cal.peek(), hp.peek()
			if cp != hpk {
				t.Fatalf("seed %d op %d: peek %+v != %+v", seed, op, cp, hpk)
			}
			ce, he := cal.pop(), hp.pop()
			if ce != he {
				t.Fatalf("seed %d op %d: pop %+v != %+v", seed, op, ce, he)
			}
			live--
		}
		for !hp.empty() {
			if cal.empty() {
				t.Fatalf("seed %d: calendar drained early", seed)
			}
			ce, he := cal.pop(), hp.pop()
			if ce != he {
				t.Fatalf("seed %d: drain pop %+v != %+v", seed, ce, he)
			}
		}
		if !cal.empty() {
			t.Fatalf("seed %d: calendar not empty after drain", seed)
		}
	}
}

// FuzzCalendarQueue holds the run queue — a trace's latent arrivals
// overlaid by a streamQueue on a live-set calendarQueue, as openQueue
// builds it — to the heapQueue oracle holding the same arrivals up
// front. Both take one decoded operation sequence and must agree on
// every empty, peek and pop, compared by (at, kind, seq). The first
// byte sizes a trace of 1–15 rows, two bytes each: a start on a
// 300-second grid, so arrivals tie, and a lifetime of 0–3 slots, which
// sets the horizon. The rest are operations: a push of any kind, at an
// instant on a 150-second grid that collides with the arrivals' or past
// the horizon, with a seq from a small range, so equal seqs repeat
// within and across kinds and rows; a pop; or a peek.
//
//	go test -run '^$' -fuzz FuzzCalendarQueue -fuzztime 15s -fuzzminimizetime 200x ./internal/clustersim
func FuzzCalendarQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 0, 1, 1, 2, 0, 4, 0, 5, 1, 2, 2, 3, 0, 4, 5, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{8, 0, 0, 0, 0, 1, 3, 2, 1, 2, 2, 3, 0, 4, 1, 4, 2, 0, 0x80, 5, 7, 1, 0xff, 0, 7, 0, 6, 3, 7, 2, 3, 2, 2, 2, 2})
	kinds := []eventKind{evSample, evDeparture, evRestore, evRevoke, evResize, evArrival}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		tr := &trace.AzureTrace{}
		for n := 1 + next()%15; len(tr.VMs) < n; {
			start := float64(next()%8) * 300
			tr.VMs = append(tr.VMs, &trace.VMRecord{
				ID:    fmt.Sprintf("vm-%d", len(tr.VMs)),
				Start: start,
				End:   start + float64(next()%4)*300,
			})
		}
		horizon := tr.Duration()
		q, oracle := arrivalQueue(tr, false), arrivalQueue(tr, true)
		same := func(op int, what string, got, want simEvent) {
			if got.at != want.at || got.kind != want.kind || got.seq != want.seq {
				t.Fatalf("op %d: %s (%g, %v, %d), heap (%g, %v, %d)", op, what, got.at, got.kind, got.seq, want.at, want.kind, want.seq)
			}
		}
		for op := 0; len(data) > 0; op++ {
			if q.empty() != oracle.empty() {
				t.Fatalf("op %d: empty() = %v, heap %v", op, q.empty(), oracle.empty())
			}
			switch next() % 4 {
			case 0, 1:
				at := float64(next()%16) * 150
				if b := next(); b >= 0x80 {
					at = horizon + float64(b-0x7f)*1e4
				}
				e := simEvent{at: at, kind: kinds[next()%len(kinds)], seq: next() % 8}
				q.push(e)
				oracle.push(e)
			case 2:
				if !oracle.empty() {
					same(op, "pop", q.pop(), oracle.pop())
				}
			case 3:
				if !oracle.empty() {
					same(op, "peek", q.peek(), oracle.peek())
				}
			}
		}
		for op := 0; !oracle.empty(); op++ {
			if q.empty() {
				t.Fatalf("drain %d: queue empty, heap holds %d", op, len(oracle.(*heapQueue).evs))
			}
			same(op, "drain pop", q.pop(), oracle.pop())
		}
		if !q.empty() {
			t.Fatal("queue holds events after the heap drained")
		}
	})
}

// TestCalendarQueueResizeCycle drives the population through growth and
// drain so both resize directions (double and shrink) fire, and the
// drain order stays fully sorted.
func TestCalendarQueueResizeCycle(t *testing.T) {
	q := newCalendarQueue(4, 10)
	rng := rand.New(rand.NewSource(9))
	n := 5000
	for i := 0; i < n; i++ {
		q.push(simEvent{at: rng.Float64() * 1e5, kind: evSample, seq: i})
	}
	var last simEvent
	for i := 0; i < n; i++ {
		e := q.pop()
		if i > 0 && eventLess(e, last) {
			t.Fatalf("pop %d out of order: %+v after %+v", i, e, last)
		}
		last = e
	}
	if !q.empty() {
		t.Fatal("queue not empty after full drain")
	}
}

// BenchmarkCalendarQueueSteadyState is the hot-loop shape the engine
// drives: a warmed queue at constant size, one pop + one push per
// iteration (a departure retiring and a new one scheduling). Gated at 0
// allocs/op by `make bench-allocs` — the buckets are warmed to capacity
// before timing, so steady-state churn must not grow anything.
func BenchmarkCalendarQueueSteadyState(b *testing.B) {
	const live = 4096
	q := newCalendarQueue(live, 86400)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < live; i++ {
		q.push(simEvent{at: rng.Float64() * 86400, kind: evDeparture, seq: i})
	}
	// One full churn cycle warms every bucket's capacity past what the
	// steady state revisits.
	for i := 0; i < 4*live; i++ {
		e := q.pop()
		e.at += rng.Float64() * 3600
		e.seq = live + i
		q.push(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.pop()
		e.at += 1800
		e.seq = 5*live + i
		q.push(e)
	}
}

// calendarFillDrain is one resize-crossing churn cycle: fill an empty
// queue to live events spread over a day, so the ring doubles from its
// floor several times, then drain it, so it shrinks back. A quarter of
// the events share the day's last instant, as the VMs clipped to a
// trace's horizon all depart at it, so the drain sorts their bucket.
func calendarFillDrain(q *calendarQueue, rng *rand.Rand, live int) {
	for i := 0; i < live; i++ {
		at := rng.Float64() * 86400
		if i%4 == 0 {
			at = 86400
		}
		q.push(simEvent{at: at, kind: evDeparture, seq: i})
	}
	for !q.empty() {
		q.pop()
	}
}

// TestCalendarQueueRecyclesStorage: once the node pool has reached the
// live set's high-water mark, fill-and-drain cycles whose resizes
// double and shrink the ring, and whose drain sorts a mass collision's
// bucket, allocate nothing, and the pool holds no more than twice that
// mark.
func TestCalendarQueueRecyclesStorage(t *testing.T) {
	const live = 3000
	q := newCalendarQueue(calendarMinBuckets, 86400)
	rng := rand.New(rand.NewSource(3))
	calendarFillDrain(q, rng, live)
	if got := testing.AllocsPerRun(20, func() { calendarFillDrain(q, rng, live) }); got != 0 {
		t.Errorf("fill-drain cycle allocates %v objects after warm-up, want 0", got)
	}
	if len(q.nodes) != live || cap(q.nodes) > 2*live {
		t.Errorf("pool holds %d nodes (cap %d) for a high-water mark of %d, want %d (cap <= %d)",
			len(q.nodes), cap(q.nodes), live, live, 2*live)
	}
}

// BenchmarkCalendarQueueResizeChurn gates the calendar's storage
// recycling: each op is a fill-drain cycle whose window crosses every
// grow and shrink resize between the ring's floor and 1024 events.
// `make bench-allocs` requires 0 allocs/op after the warm-up cycle.
func BenchmarkCalendarQueueResizeChurn(b *testing.B) {
	const live = 1024
	q := newCalendarQueue(calendarMinBuckets, 86400)
	rng := rand.New(rand.NewSource(1))
	calendarFillDrain(q, rng, live)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calendarFillDrain(q, rng, live)
	}
}

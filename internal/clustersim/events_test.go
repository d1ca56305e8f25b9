package clustersim

import (
	"fmt"
	"math/rand"
	"testing"

	"vmdeflate/internal/trace"
)

// popAll drains the queue.
func popAll(q eventQueue) []simEvent {
	var out []simEvent
	for !q.empty() {
		out = append(out, q.pop())
	}
	return out
}

// queueImpls enumerates the interchangeable eventQueue implementations;
// every ordering test runs against each: the oracle heap, and the run
// queue over an empty arrival column, which is its live-set heap alone.
// The run queue's subtests keep the label "calendar", the queue it
// replaced, so their names stay stable.
func queueImpls() map[string]func() eventQueue {
	return map[string]func() eventQueue{
		"heap":     func() eventQueue { return &heapQueue{} },
		"calendar": func() eventQueue { return newStreamQueue(nil, nil) },
	}
}

func TestEventQueueOrdering(t *testing.T) {
	cases := []struct {
		name string
		push []simEvent
		want []simEvent
	}{
		{
			name: "time ordering regardless of push order",
			push: []simEvent{
				{at: 300, kind: evArrival, seq: 2},
				{at: 100, kind: evArrival, seq: 0},
				{at: 200, kind: evDeparture, name: "a", seq: 0},
				{at: 150, kind: evSample},
			},
			want: []simEvent{
				{at: 100, kind: evArrival, seq: 0},
				{at: 150, kind: evSample},
				{at: 200, kind: evDeparture, name: "a", seq: 0},
				{at: 300, kind: evArrival, seq: 2},
			},
		},
		{
			name: "departure before arrival at equal timestamps",
			push: []simEvent{
				{at: 500, kind: evArrival, seq: 7},
				{at: 500, kind: evDeparture, name: "old", seq: 3},
			},
			want: []simEvent{
				{at: 500, kind: evDeparture, name: "old", seq: 3},
				{at: 500, kind: evArrival, seq: 7},
			},
		},
		{
			name: "sample precedes departure and arrival at equal timestamps",
			push: []simEvent{
				{at: 600, kind: evArrival, seq: 4},
				{at: 600, kind: evSample},
				{at: 600, kind: evDeparture, name: "o", seq: 1},
			},
			want: []simEvent{
				{at: 600, kind: evSample},
				{at: 600, kind: evDeparture, name: "o", seq: 1},
				{at: 600, kind: evArrival, seq: 4},
			},
		},
		{
			name: "trace-index tie-break within one kind",
			push: []simEvent{
				{at: 900, kind: evArrival, seq: 9},
				{at: 900, kind: evArrival, seq: 2},
				{at: 900, kind: evArrival, seq: 5},
			},
			want: []simEvent{
				{at: 900, kind: evArrival, seq: 2},
				{at: 900, kind: evArrival, seq: 5},
				{at: 900, kind: evArrival, seq: 9},
			},
		},
		{
			name: "sample interleaving across event times",
			push: []simEvent{
				{at: 300, kind: evSample},
				{at: 250, kind: evArrival, seq: 0},
				{at: 350, kind: evDeparture, name: "a", seq: 0},
				{at: 600, kind: evSample},
				{at: 600, kind: evArrival, seq: 1},
			},
			want: []simEvent{
				{at: 250, kind: evArrival, seq: 0},
				{at: 300, kind: evSample},
				{at: 350, kind: evDeparture, name: "a", seq: 0},
				{at: 600, kind: evSample},
				{at: 600, kind: evArrival, seq: 1},
			},
		},
	}
	for implName, mk := range queueImpls() {
		for _, tc := range cases {
			t.Run(implName+"/"+tc.name, func(t *testing.T) {
				q := mk()
				for _, e := range tc.push {
					q.push(e)
				}
				got := popAll(q)
				if len(got) != len(tc.want) {
					t.Fatalf("popped %d events, want %d", len(got), len(tc.want))
				}
				for i, g := range got {
					w := tc.want[i]
					if g.at != w.at || g.kind != w.kind || g.seq != w.seq {
						t.Errorf("event[%d] = (t=%g %v seq=%d), want (t=%g %v seq=%d)",
							i, g.at, g.kind, g.seq, w.at, w.kind, w.seq)
					}
					if g.name != w.name {
						t.Errorf("event[%d] name = %q, want %q", i, g.name, w.name)
					}
				}
			})
		}
	}
}

// arrivalQueue is the event queue a run over tr opens: the latent
// arrival overlay, or with useHeap the flat heap oracle.
func arrivalQueue(tr *trace.AzureTrace, useHeap bool) eventQueue {
	src := newRowSource(tr, nil)
	if useHeap {
		return newHeapQueue(src)
	}
	return (&Engine{src: src}).openQueue()
}

func TestArrivalQueue(t *testing.T) {
	tr := &trace.AzureTrace{VMs: []*trace.VMRecord{
		{ID: "late", Start: 500, End: 600},
		{ID: "tied-b", Start: 100, End: 300},
		{ID: "tied-c", Start: 100, End: 300},
		{ID: "early", Start: 0, End: 200},
	}}
	for _, useHeap := range []bool{false, true} {
		got := popAll(arrivalQueue(tr, useHeap))
		wantIDs := []string{"early", "tied-b", "tied-c", "late"}
		if len(got) != len(wantIDs) {
			t.Fatalf("useHeap=%v: events = %d, want %d", useHeap, len(got), len(wantIDs))
		}
		for i, e := range got {
			if e.kind != evArrival {
				t.Errorf("useHeap=%v: event[%d] kind = %v, want arrival", useHeap, i, e.kind)
			}
			if id := tr.VMs[e.seq].ID; id != wantIDs[i] {
				t.Errorf("useHeap=%v: event[%d] = %s, want %s", useHeap, i, id, wantIDs[i])
			}
		}
		// seq must be the trace index so equal-time events replay in trace
		// order: tied-b (index 1) before tied-c (index 2).
		if got[1].seq != 1 || got[2].seq != 2 {
			t.Errorf("useHeap=%v: tie seqs = %d,%d, want 1,2", useHeap, got[1].seq, got[2].seq)
		}
	}
}

// TestEngineMatchesLegacySliceReplay replays a trace through the heap
// engine and through a reference slice-based loop (the pre-refactor
// algorithm, reconstructed from the stable event sort) and requires
// identical admission bookkeeping — the engine refactor must not change
// what the simulator computes.
func TestEngineMatchesLegacySliceReplay(t *testing.T) {
	tr := testTrace(250)
	got, err := Run(Config{Trace: tr, Overcommit: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	// The legacy loop's observable ordering: all events sorted by
	// (time, departures-first), samples drained before each event.
	// The heap delivers exactly that order, so bookkeeping totals
	// must line up with a straight recount from the stable sort.
	arrivals := 0
	for _, e := range referenceEvents(tr) {
		if e.arrival {
			arrivals++
		}
	}
	if got.Arrivals != arrivals {
		t.Errorf("engine processed %d arrivals, trace has %d", got.Arrivals, arrivals)
	}
	if got.Admitted+got.Rejected != got.Arrivals {
		t.Errorf("admission bookkeeping: %d + %d != %d", got.Admitted, got.Rejected, got.Arrivals)
	}
}

// TestArrivalOverlayMatchesHeap holds the eager intake — latent arrivals
// overlaid on the live-set heap — to the flat pre-pushed heap, event
// for event, on traces whose rows are shuffled out of start order, tie
// on start and include zero-lifetime VMs. Both queues are driven the way
// the engine drives them: every delivered arrival schedules its
// departure, so a zero-lifetime VM's departure has to cut in ahead of
// the arrivals still latent at its instant.
func TestArrivalOverlayMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		tr := &trace.AzureTrace{VMs: make([]*trace.VMRecord, n)}
		for i := range tr.VMs {
			start := float64(rng.Intn(12)) * 150 // few distinct instants: ties
			life := float64(rng.Intn(4)) * 150   // a quarter live zero seconds
			tr.VMs[i] = &trace.VMRecord{ID: fmt.Sprintf("vm-%d", i), Start: start, End: start + life}
		}
		drive := func(q eventQueue) []simEvent {
			q.push(simEvent{at: 300, kind: evSample})
			var out []simEvent
			for !q.empty() {
				if peeked := q.peek(); peeked != q.peek() {
					t.Fatalf("trial %d: peek is not stable", trial)
				}
				ev := q.pop()
				out = append(out, ev)
				if ev.kind == evArrival {
					vm := tr.VMs[ev.seq]
					q.push(simEvent{at: vm.End, kind: evDeparture, name: vm.ID, seq: ev.seq})
				}
			}
			return out
		}
		got, want := drive(arrivalQueue(tr, false)), drive(arrivalQueue(tr, true))
		if len(got) != 2*n+1 || len(want) != 2*n+1 {
			t.Fatalf("trial %d: delivered %d / %d events, want %d", trial, len(got), len(want), 2*n+1)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: event %d = %+v, heap delivers %+v", trial, i, got[i], want[i])
			}
			if i > 0 && got[i].at < got[i-1].at {
				t.Fatalf("trial %d: event %d = %+v delivered after %+v", trial, i, got[i], got[i-1])
			}
		}
	}
}

// liveSetCount counts what a run queue's live set holds and remembers
// the peak: every push joins it, and every pop but an arrival's (which
// the intake delivers from the trace) leaves it.
type liveSetCount struct {
	eventQueue
	size, peak int
}

func (q *liveSetCount) push(e simEvent) {
	q.eventQueue.push(e)
	if q.size++; q.size > q.peak {
		q.peak = q.size
	}
}

func (q *liveSetCount) pop() simEvent {
	e := q.eventQueue.pop()
	if e.kind != evArrival {
		q.size--
	}
	return e
}

// TestLiveSetQueuePeak is the work count of the merged intake: on an
// eager run the live-set heap never holds more than the live VMs'
// departures, the shock schedule and one sample — where pre-pushing the
// arrivals started it at one event per trace VM.
func TestLiveSetQueuePeak(t *testing.T) {
	tr, err := trace.GenerateScenario(trace.ScenarioConfig{Kind: trace.ScenarioHeavyTail, NumVMs: 20000, Duration: 86400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{Trace: tr, Overcommit: 0.5, ShockConfig: testShockConfig(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.setupDeflation(); err != nil {
		t.Fatal(err)
	}
	// The seeded heap holds the shock schedule and the first sample.
	overlay := e.queue.(*streamQueue)
	seeded := len(overlay.inner)
	shocks := seeded - 1
	counted := &liveSetCount{eventQueue: e.queue, size: seeded, peak: seeded}
	e.queue = counted
	if err := e.eventLoop(); err != nil {
		t.Fatal(err)
	}
	res := e.foldResult()
	if shocks == 0 || res.Revocations == 0 || res.Admitted < len(tr.VMs)/2 {
		t.Fatalf("vacuous run: %d shock events, %d revocations, %d of %d admitted", shocks, res.Revocations, res.Admitted, len(tr.VMs))
	}
	// Peak concurrency of the trace bounds the departures pending at any
	// instant (a shock-killed VM's stale departure included).
	live, peakLive := 0, 0
	for _, ev := range referenceEvents(tr) {
		if !ev.arrival {
			live--
		} else if live++; live > peakLive {
			peakLive = live
		}
	}
	if bound := peakLive + shocks + 1; counted.peak > bound {
		t.Errorf("live-set queue peaked at %d events; %d live VMs + %d shock events + 1 sample = %d", counted.peak, peakLive, shocks, bound)
	}
	if counted.peak >= len(tr.VMs)/2 {
		t.Errorf("live-set queue peaked at %d events on a %d-VM trace: arrivals are being queued", counted.peak, len(tr.VMs))
	}
	if counted.size != 0 {
		t.Errorf("%d events left after the run", counted.size)
	}
	if c := cap(overlay.inner); c > 2*counted.peak {
		t.Errorf("live-set heap array cap %d for a peak of %d events, want <= %d", c, counted.peak, 2*counted.peak)
	}
}

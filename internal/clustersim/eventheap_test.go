package clustersim

import (
	"fmt"
	"math/rand"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/trace"
)

// TestEventHeapMatchesOracleRandomized is the randomized differential
// property: any interleaving of pushes and pops drains in exactly the
// same (time, kind, seq) order from the live-set heap and the
// container/heap oracle. The workload deliberately includes same-instant
// collisions across every kind and adjacent seq values — the tie cases
// the total order exists for — plus pushes below the last popped time.
func TestEventHeapMatchesOracleRandomized(t *testing.T) {
	kinds := []eventKind{evSample, evDeparture, evRestore, evRevoke, evArrival}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		hp := &heapQueue{}
		seq := 0
		mk := func() simEvent {
			// Quantised times force heavy same-instant collisions; a few
			// scattered huge times spread the heap's levels.
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
		for op := 0; op < 20000; op++ {
			if len(h) == 0 || rng.Intn(3) != 0 {
				e := mk()
				h.push(e)
				hp.push(e)
				continue
			}
			if hp.empty() {
				t.Fatalf("seed %d op %d: oracle empty, heap holds %d", seed, op, len(h))
			}
			if hk := hp.peek(); h[0] != hk {
				t.Fatalf("seed %d op %d: peek %+v != %+v", seed, op, h[0], hk)
			}
			if ge, he := h.pop(), hp.pop(); ge != he {
				t.Fatalf("seed %d op %d: pop %+v != %+v", seed, op, ge, he)
			}
		}
		for !hp.empty() {
			if len(h) == 0 {
				t.Fatalf("seed %d: heap drained early", seed)
			}
			if ge, he := h.pop(), hp.pop(); ge != he {
				t.Fatalf("seed %d: drain pop %+v != %+v", seed, ge, he)
			}
		}
		if len(h) != 0 {
			t.Fatalf("seed %d: heap holds %d events after the oracle drained", seed, len(h))
		}
	}
}

// FuzzEventQueue holds the run queue — a trace's latent arrivals
// overlaid by a streamQueue on the live-set eventHeap, as openQueue
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
//	go test -run '^$' -fuzz FuzzEventQueue -fuzztime 15s -fuzzminimizetime 200x ./internal/clustersim
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 0, 1, 1, 2, 0, 4, 0, 5, 1, 2, 2, 3, 0, 4, 5, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{8, 0, 0, 0, 0, 1, 3, 2, 1, 2, 2, 3, 0, 4, 1, 4, 2, 0, 0x80, 5, 7, 1, 0xff, 0, 7, 0, 6, 3, 7, 2, 3, 2, 2, 2, 2})
	kinds := []eventKind{evSample, evDeparture, evRestore, evRevoke, evArrival}
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

// TestEventHeapDrainsSorted fills the heap with random times, then
// drains it in eventLess order.
func TestEventHeapDrainsSorted(t *testing.T) {
	var h eventHeap
	rng := rand.New(rand.NewSource(9))
	n := 5000
	for i := 0; i < n; i++ {
		h.push(simEvent{at: rng.Float64() * 1e5, kind: evSample, seq: i})
	}
	var last simEvent
	for i := 0; i < n; i++ {
		e := h.pop()
		if i > 0 && eventLess(&e, &last) {
			t.Fatalf("pop %d out of order: %+v after %+v", i, e, last)
		}
		last = e
	}
	if len(h) != 0 {
		t.Fatal("heap not empty after full drain")
	}
}

// BenchmarkEventHeapSteadyState is the hot-loop shape the engine
// drives: a warmed heap at constant size, one pop + one push per
// iteration (a departure retiring and a new one scheduling). Gated at 0
// allocs/op by `make bench-allocs`: the array reached its size before
// timing, so steady-state churn must not grow anything.
func BenchmarkEventHeapSteadyState(b *testing.B) {
	const live = 4096
	var h eventHeap
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < live; i++ {
		h.push(simEvent{at: rng.Float64() * 86400, kind: evDeparture, seq: i})
	}
	for i := 0; i < 4*live; i++ {
		e := h.pop()
		e.at += rng.Float64() * 3600
		e.seq = live + i
		h.push(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := h.pop()
		e.at += 1800
		e.seq = 5*live + i
		h.push(e)
	}
}

// eventHeapFillDrain is one fill-drain cycle: fill an empty heap to
// live events spread over a day, then drain it. A quarter of the events
// share the day's last instant, as the VMs clipped to a trace's horizon
// all depart at it, so the drain breaks a mass tie on seq.
func eventHeapFillDrain(h *eventHeap, rng *rand.Rand, live int) {
	for i := 0; i < live; i++ {
		at := rng.Float64() * 86400
		if i%4 == 0 {
			at = 86400
		}
		h.push(simEvent{at: at, kind: evDeparture, seq: i})
	}
	for len(*h) > 0 {
		h.pop()
	}
}

// TestEventHeapRecyclesStorage: once the array has reached the live
// set's high-water mark, fill-and-drain cycles allocate nothing, and the
// array holds no more than twice that mark.
func TestEventHeapRecyclesStorage(t *testing.T) {
	const live = 3000
	var h eventHeap
	rng := rand.New(rand.NewSource(3))
	eventHeapFillDrain(&h, rng, live)
	if got := testing.AllocsPerRun(20, func() { eventHeapFillDrain(&h, rng, live) }); got != 0 {
		t.Errorf("fill-drain cycle allocates %v objects after warm-up, want 0", got)
	}
	if c := cap(h); c < live || c > 2*live {
		t.Errorf("array cap %d for a high-water mark of %d, want %d..%d", c, live, live, 2*live)
	}
}

// BenchmarkEventHeapFillDrain gates the heap's storage reuse: each op
// fills an emptied heap to 1024 events and drains it. `make
// bench-allocs` requires 0 allocs/op after the warm-up cycle.
func BenchmarkEventHeapFillDrain(b *testing.B) {
	const live = 1024
	var h eventHeap
	rng := rand.New(rand.NewSource(1))
	eventHeapFillDrain(&h, rng, live)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eventHeapFillDrain(&h, rng, live)
	}
}

// TestRunQueueMatchesHeapFullRuns closes the loop on the run queue at
// the engine level: full runs (eager and streamed) with the flat heap
// oracle forced must equal the default intake bit for bit.
func TestRunQueueMatchesHeapFullRuns(t *testing.T) {
	s, err := trace.NewStream(trace.ScenarioConfig{
		Kind: trace.ScenarioDiurnal, NumVMs: 400, Duration: 86400, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Materialize()
	for _, mode := range []string{"eager", "streamed"} {
		cfg := Config{Policy: policy.Priority{}, Overcommit: 0.5, ShockConfig: testShockConfig(7)}
		if mode == "eager" {
			cfg.Trace = tr
		} else {
			cfg.Stream = s
		}
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runOracleModes(t, mode+"/", cfg, want)
	}
}

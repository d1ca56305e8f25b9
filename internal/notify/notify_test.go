package notify

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"vmdeflate/internal/resources"
)

func TestSubscribePublishUnsubscribe(t *testing.T) {
	var b Bus
	var got []Event
	cancel := b.Subscribe(func(ev Event) { got = append(got, ev) })
	if len(b.snapshot()) != 1 {
		t.Errorf("subscribers = %d", len(b.snapshot()))
	}
	ev := Event{VM: "vm-1", Server: "n0", Kind: Deflated}
	b.Publish(ev)
	if len(got) != 1 || got[0].VM != "vm-1" {
		t.Fatalf("got = %v", got)
	}
	cancel()
	b.Publish(ev)
	if len(got) != 1 {
		t.Error("unsubscribed subscriber still received events")
	}
	cancel() // double-cancel is a no-op
}

func TestMultipleSubscribers(t *testing.T) {
	var b Bus
	count := 0
	for i := 0; i < 3; i++ {
		b.Subscribe(func(Event) { count++ })
	}
	b.Publish(Event{})
	if count != 3 {
		t.Errorf("count = %d", count)
	}
}

func TestClassify(t *testing.T) {
	full := resources.CPUMem(8, 16384)
	half := full.Scale(0.5)
	if Classify(full, half) != Deflated {
		t.Error("shrink should classify as Deflated")
	}
	if Classify(half, full) != Reinflated {
		t.Error("growth should classify as Reinflated")
	}
	// Mixed change (one dim down) counts as deflation.
	mixed := resources.CPUMem(16, 8192)
	if Classify(full, mixed) != Deflated {
		t.Error("mixed change with any shrink is Deflated")
	}
	if Deflated.String() != "deflated" || Reinflated.String() != "reinflated" {
		t.Error("kind names wrong")
	}
}

func TestConcurrentPublish(t *testing.T) {
	var b Bus
	var mu sync.Mutex
	n := 0
	b.Subscribe(func(Event) { mu.Lock(); n++; mu.Unlock() })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Publish(Event{})
			}
		}()
	}
	wg.Wait()
	if n != 800 {
		t.Errorf("n = %d", n)
	}
}

// TestPublishDeliversInSubscriptionOrder: Subscriber's contract. A
// cancelled subscriber leaves the order of the rest unchanged and a
// late one goes last.
func TestPublishDeliversInSubscriptionOrder(t *testing.T) {
	var b Bus
	var got []int
	cancels := make([]func(), 16)
	for i := range cancels {
		cancels[i] = b.Subscribe(func(Event) { got = append(got, i) })
	}
	cancels[3]()
	cancels[0]()
	b.Subscribe(func(Event) { got = append(got, 16) })
	want := []int{1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	for round := 0; round < 3; round++ {
		got = got[:0]
		b.Publish(Event{})
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: delivery order %v, want %v", round, got, want)
		}
	}
}

// TestPublishCancelDuringPublish: a subscriber may cancel itself or a
// later subscriber from inside a delivery. The event in flight still
// reaches the list it started with; the next one does not.
func TestPublishCancelDuringPublish(t *testing.T) {
	var b Bus
	var first, second int
	var cancelFirst, cancelSecond func()
	cancelFirst = b.Subscribe(func(Event) {
		first++
		cancelFirst()
		cancelSecond()
	})
	cancelSecond = b.Subscribe(func(Event) { second++ })
	b.Publish(Event{})
	if first != 1 || second != 1 {
		t.Fatalf("in-flight event: first %d, second %d deliveries, want 1 and 1", first, second)
	}
	b.Publish(Event{})
	if first != 1 || second != 1 || len(b.snapshot()) != 0 {
		t.Errorf("after cancel: first %d, second %d deliveries, %d subscribers; want 1, 1, 0", first, second, len(b.snapshot()))
	}
}

// TestPublishConcurrentWithSubscribeCancel: publishers run lock-free
// against a churning subscriber list (the -race target). A permanent
// subscriber must see every event, and the list must end as it
// started.
func TestPublishConcurrentWithSubscribeCancel(t *testing.T) {
	var b Bus
	var permanent, transient atomic.Int64
	b.Subscribe(func(Event) { permanent.Add(1) })
	const publishers, events = 4, 500
	var pubs, churn sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
					b.Subscribe(func(Event) { transient.Add(1) })()
				}
			}
		}()
	}
	for g := 0; g < publishers; g++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < events; i++ {
				b.Publish(Event{})
			}
		}()
	}
	pubs.Wait()
	close(stop)
	churn.Wait()
	if got := permanent.Load(); got != publishers*events {
		t.Errorf("permanent subscriber saw %d events, want %d", got, publishers*events)
	}
	if len(b.snapshot()) != 1 {
		t.Errorf("subscribers = %d after the churn stopped, want 1", len(b.snapshot()))
	}
}

// BenchmarkPublishSteadyState is the notify benchmark `make
// bench-allocs` watches: with the subscriber list unchanged, Publish is
// one atomic load plus the calls and must report 0 allocs/op.
func BenchmarkPublishSteadyState(b *testing.B) {
	var bus Bus
	var n int
	for i := 0; i < 3; i++ {
		bus.Subscribe(func(ev Event) { n += len(ev.VM) })
	}
	ev := Event{VM: "vm-1", Server: "node-000", Kind: Deflated}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(ev)
	}
}

// Package notify implements the deflation-notification channel of
// Figure 1: "the hypervisor also sends notifications to the application
// manager (such as a load balancer), which can help applications respond
// to deflation." Subscribers (a deflation-aware load balancer, an
// application autoscaler, a metrics pipeline) receive an event whenever
// a VM's allocation changes.
package notify

import (
	"slices"
	"sync"
	"sync/atomic"

	"vmdeflate/internal/resources"
)

// EventKind distinguishes deflation from reinflation.
type EventKind int

const (
	// Deflated means the VM's allocation decreased.
	Deflated EventKind = iota
	// Reinflated means the VM's allocation increased.
	Reinflated
)

// String names the event kind.
func (k EventKind) String() string {
	if k == Deflated {
		return "deflated"
	}
	return "reinflated"
}

// Event describes one allocation change.
type Event struct {
	// VM is the domain name; Server the hosting server.
	VM, Server string
	Kind       EventKind
	// Old and New are the allocations before and after.
	Old, New resources.Vector
	// DeflationFraction is the VM's overall deflation after the change
	// (0 = full size).
	DeflationFraction float64
}

// Subscriber receives events. Implementations must not block for long;
// the bus delivers synchronously in subscription order.
type Subscriber func(Event)

// Bus fans events out to subscribers. The zero value is ready to use.
//
// The subscriber list is copy-on-write: Subscribe and cancel build a new
// slice under mu and swap it in, so Publish — which a traced run calls
// once per allocation change, from every engine of a sweep at once — is
// one atomic load plus the calls, with no lock and no allocation.
type Bus struct {
	mu   sync.Mutex // serialises Subscribe and cancel
	subs atomic.Pointer[[]subscription]
	next int
}

// subscription is one registered subscriber; id is what its cancel
// function removes.
type subscription struct {
	id int
	fn Subscriber
}

func (b *Bus) snapshot() []subscription {
	if p := b.subs.Load(); p != nil {
		return *p
	}
	return nil
}

// Subscribe registers fn after every current subscriber and returns an
// unsubscribe function.
func (b *Bus) Subscribe(fn Subscriber) (cancel func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.next
	b.next++
	subs := append(slices.Clone(b.snapshot()), subscription{id, fn})
	b.subs.Store(&subs)
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		subs := slices.DeleteFunc(slices.Clone(b.snapshot()), func(s subscription) bool { return s.id == id })
		b.subs.Store(&subs)
	}
}

// Publish fans ev out to all subscribers, in subscription order. It
// delivers to the list as it stood when the call began: a subscriber
// cancelled while a Publish is in flight may still receive that event,
// and none after it.
func (b *Bus) Publish(ev Event) {
	subs := b.snapshot()
	for _, s := range subs {
		s.fn(ev)
	}
}

// Classify derives the event kind from an allocation change: any
// dimension shrinking means Deflated; otherwise Reinflated.
func Classify(old, new resources.Vector) EventKind {
	for _, k := range resources.Kinds {
		if new.Get(k) < old.Get(k)-1e-9 {
			return Deflated
		}
	}
	return Reinflated
}

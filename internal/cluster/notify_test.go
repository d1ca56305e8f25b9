package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/notify"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// The Figure 1 notification path: placing a VM that forces deflation
// publishes Deflated events; departures publish Reinflated events.
func TestManagerPublishesDeflationEvents(t *testing.T) {
	var bus notify.Bus
	var events []notify.Event
	bus.Subscribe(func(ev notify.Event) { events = append(events, ev) })

	m := NewManager(Config{Notify: &bus})
	if _, err := m.AddServer("n0", serverCap(), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.PlaceVM(deflatableVM("low", 40, 65536, 0.5)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("surplus placement should not notify: %v", events)
	}
	if _, _, err := m.PlaceVM(onDemandVM("od", 16, 32768)); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("deflating placement should notify")
	}
	ev := events[0]
	if ev.VM != "low" || ev.Server != "n0" || ev.Kind != notify.Deflated {
		t.Errorf("event = %+v", ev)
	}
	if ev.DeflationFraction <= 0 {
		t.Errorf("deflation fraction = %v", ev.DeflationFraction)
	}
	if ev.New.Get(resources.CPU) >= ev.Old.Get(resources.CPU) {
		t.Errorf("allocation should shrink: %v -> %v", ev.Old, ev.New)
	}

	// Departure reinflates and notifies.
	before := len(events)
	if err := m.RemoveVM("od"); err != nil {
		t.Fatal(err)
	}
	if len(events) <= before {
		t.Fatal("reinflation should notify")
	}
	last := events[len(events)-1]
	if last.Kind != notify.Reinflated {
		t.Errorf("last event kind = %v", last.Kind)
	}
}

// Deflation and reinflation passes must deliver their notifications in
// sorted VM-name order — the slice-backed policy results apply targets
// in the host view's name order, replacing the old map-range apply whose
// delivery order varied run to run.
func TestNotifyOrderIsSortedByName(t *testing.T) {
	var bus notify.Bus
	var order []string
	bus.Subscribe(func(ev notify.Event) { order = append(order, ev.VM) })

	m := NewManager(Config{Notify: &bus})
	if _, err := m.AddServer("n0", serverCap(), 0); err != nil {
		t.Fatal(err)
	}
	// Insertion order deliberately unsorted; all three deflate together.
	for _, name := range []string{"web-c", "web-a", "web-b"} {
		if _, _, err := m.PlaceVM(deflatableVM(name, 16, 32768, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := m.PlaceVM(onDemandVM("od", 12, 16384)); err != nil {
		t.Fatal(err)
	}
	want := []string{"web-a", "web-b", "web-c"}
	if len(order) != len(want) {
		t.Fatalf("deflation events = %v, want one per resident", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("deflation event order = %v, want %v", order, want)
		}
	}

	// The reinflation pass after a departure is name-ordered too.
	order = order[:0]
	if err := m.RemoveVM("od"); err != nil {
		t.Fatal(err)
	}
	if len(order) != len(want) {
		t.Fatalf("reinflation events = %v, want one per resident", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("reinflation event order = %v, want %v", order, want)
		}
	}
}

// A deflation-aware load balancer can drive its weights straight from
// the bus — the end-to-end wiring of Figure 1.
func TestBusDrivesWeights(t *testing.T) {
	var bus notify.Bus
	weights := map[string]float64{}
	bus.Subscribe(func(ev notify.Event) {
		weights[ev.VM] = ev.New.Get(resources.CPU)
	})
	m := NewManager(Config{Notify: &bus})
	m.AddServer("n0", serverCap(), 0)
	m.PlaceVM(deflatableVM("web-1", 48, 98304, 0.5))
	m.PlaceVM(onDemandVM("db", 24, 16384))
	if w, ok := weights["web-1"]; !ok || w > 24.001 {
		t.Errorf("weights = %v, want web-1 <= 24", weights)
	}
}

// TestEventsMatchLockedDomainReads holds the events the policy passes
// build from the view's Current column and Apply's return value to the
// path they replaced — three reads of the domain around every Apply. Over a churn of placements, departures, batch departures,
// resizes and revocations the subscriber re-derives every field the old
// way: Old is the allocation the domain had going in (tracked from a
// snapshot of every live domain taken before each manager call, then
// event to event), New and DeflationFraction are read back from the
// domain while the event is being delivered, Kind is Classify of the
// two, Server is the host the domain lives on. Each published
// event must equal that one field for field.
func TestEventsMatchLockedDomainReads(t *testing.T) {
	configs := []Config{
		{},
		{Policy: policy.Priority{}},
	}
	for ci, cfg := range configs {
		t.Run(fmt.Sprintf("config=%d", ci), func(t *testing.T) {
			var bus notify.Bus
			cfg.Notify = &bus
			m := newTestManager(t, 6, cfg)
			hosts := map[string]*hypervisor.Host{}
			for _, s := range m.Servers() {
				hosts[s.Host.Name()] = s.Host
			}

			// The allocation going into the next Apply, per domain — keyed by
			// handle, since an evacuee re-lands as a new domain.
			cur := map[*hypervisor.Domain]resources.Vector{}
			events, checkedOld := 0, 0
			bus.Subscribe(func(ev notify.Event) {
				events++
				h := hosts[ev.Server]
				if h == nil {
					t.Fatalf("event names unknown server %q", ev.Server)
				}
				d, err := h.Lookup(ev.VM)
				if err != nil {
					t.Fatalf("event for %s on %s: %v", ev.VM, ev.Server, err)
				}
				want := notify.Event{
					VM: d.Name(), Server: d.Host().Name(),
					Old: ev.Old, New: d.Allocation(),
					DeflationFraction: d.Allocation().DeflationFraction(d.MaxSize()),
				}
				if old, ok := cur[d]; ok { // launched before this manager call, or seen since
					want.Old = old
					checkedOld++
				}
				want.Kind = notify.Classify(want.Old, want.New)
				if ev != want {
					t.Fatalf("published event\n got %+v\nwant %+v", ev, want)
				}
				if ev.Old == ev.New {
					t.Fatalf("event for an unchanged allocation: %+v", ev)
				}
				cur[d] = ev.New
			})
			snapshot := func() {
				clear(cur)
				for _, h := range hosts {
					for _, d := range h.Domains() {
						cur[d] = d.Allocation()
					}
				}
			}

			rng := rand.New(rand.NewSource(int64(31 + ci)))
			var live []string
			drop := func(i int) string {
				name := live[i]
				live = append(live[:i], live[i+1:]...)
				return name
			}
			for op := 0; op < 500; op++ {
				snapshot()
				switch k := rng.Intn(20); {
				case k < 11 || len(live) < 4: // arrival, most of them under pressure
					name := fmt.Sprintf("vm-%03d", op)
					dc := deflatableVM(name, float64(2+rng.Intn(10)), float64(4096*(1+rng.Intn(5))), 0.25*float64(1+rng.Intn(4)))
					if rng.Intn(4) == 0 {
						dc = onDemandVM(name, float64(2+rng.Intn(6)), 8192)
					}
					if _, _, err := m.PlaceVM(dc); err == nil {
						live = append(live, name)
					} else if !errors.Is(err, ErrNoCapacity) {
						t.Fatal(err)
					}
				case k < 16: // departure
					if err := m.RemoveVM(drop(rng.Intn(len(live)))); err != nil {
						t.Fatal(err)
					}
				case k < 18: // same-instant departures: one pass per affected server
					a, b := drop(rng.Intn(len(live))), drop(rng.Intn(len(live)))
					if err := m.RemoveVMs(a, b); err != nil {
						t.Fatal(err)
					}
				case k == 18: // the provider shrinks or restores a server
					name := fmt.Sprintf("node-%d", rng.Intn(6))
					ev, err := m.ResizeServer(name, serverCap().Scale(0.6+0.4*float64(rng.Intn(2))))
					if err != nil && !errors.Is(err, ErrRevoked) {
						t.Fatal(err)
					}
					live = dropKilled(live, ev)
				default: // revoke a server, evacuate, return it
					name := fmt.Sprintf("node-%d", rng.Intn(6))
					ev, err := m.RevokeServer(name)
					if err != nil {
						t.Fatal(err)
					}
					live = dropKilled(live, ev)
					if err := m.RestoreServer(name); err != nil {
						t.Fatal(err)
					}
				}
			}
			if events < 200 || checkedOld < events/2 {
				t.Errorf("churn published %d events, Old verified on %d: too few to hold the path to anything", events, checkedOld)
			}
		})
	}
}

// dropKilled removes the evacuees no server could take from live.
func dropKilled(live []string, ev Evacuation) []string {
	for i, pl := range ev.Placements {
		if pl.Err != nil {
			live = slices.DeleteFunc(live, func(n string) bool { return n == ev.VMs[i].Name })
		}
	}
	return live
}

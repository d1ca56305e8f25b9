package cluster

import (
	"fmt"
	"testing"

	"vmdeflate/internal/notify"
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
// path they replaced, three reads of the domain around every Apply, on
// six servers under the proportional and the priority policy
// (runPlacementOps checks every event of every stream). Each stream must
// publish at least 200 events, or it holds the path to too few.
func TestEventsMatchLockedDomainReads(t *testing.T) {
	for ci := range 2 {
		t.Run(fmt.Sprintf("config=%d", ci), func(t *testing.T) {
			if f := runNamedStream(t, ci, false, opsConfig{ops: 60, servers: 6}); f.events < 200 {
				t.Errorf("the stream published %d events, want at least 200", f.events)
			}
		})
	}
}

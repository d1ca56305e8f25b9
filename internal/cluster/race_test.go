package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"vmdeflate/internal/notify"
)

// TestManagerConcurrentPlaceRemove hammers one Manager from many
// goroutines placing, inspecting and removing disjoint VM sets, with a
// shared notification bus attached. It exists for the race detector
// (`go test -race`): the manager's placement map, counters and bus
// fan-out must all be safe under concurrent cluster churn, as the
// Manager's contract promises for every method.
func TestManagerConcurrentPlaceRemove(t *testing.T) {
	bus := &notify.Bus{}
	var delivered sync.Map
	defer bus.Subscribe(func(ev notify.Event) { delivered.Store(ev.VM, true) })()

	m := newTestManager(t, 8, Config{Notify: bus})

	const (
		workers   = 8
		perWorker = 24
	)
	var kept atomic.Int64 // VMs placed and never removed, folded per worker
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("vm-%d-%d", w, i)
				dc := deflatableVM(name, 4, 8192, 0.5)
				if i%4 == 0 {
					dc = onDemandVM(name, 2, 4096)
				}
				_, _, err := m.PlaceVM(dc)
				if errors.Is(err, ErrNoCapacity) {
					continue // admission control under pressure is fine
				}
				if err != nil {
					t.Errorf("place %s: %v", name, err)
					return
				}
				if _, _, err := m.LookupVM(name); err != nil {
					t.Errorf("lookup %s: %v", name, err)
					return
				}
				// Interleave cluster-wide reads with the churn.
				_ = m.Stats()
				_ = m.Servers()
				if i%2 == 0 {
					kept.Add(1)
					continue
				}
				if err := m.RemoveVM(name); err != nil {
					t.Errorf("remove %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := m.Stats()
	if st.Servers != 8 {
		t.Errorf("servers = %d", st.Servers)
	}
	// The outcomes fold to the manager's state after the dust settles:
	// every placement either stuck, was removed, or was rejected.
	if int64(st.VMs) != kept.Load() {
		t.Errorf("placed VMs = %d, the workers' outcomes fold to %d", st.VMs, kept.Load())
	}
}

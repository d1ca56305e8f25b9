package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/notify"
)

// TestManagerConcurrentPlaceRemove hammers one Manager from many
// goroutines placing, inspecting and removing disjoint VM sets, with a
// shared notification bus attached, while one more goroutine shrinks and
// grows servers and revokes and restores them. It exists for the race
// detector (`go test -race`): the manager's placement map, bus fan-out
// and the one policy-pass arena that every caller's deflation,
// reinflation and shrink passes share must all be safe under concurrent
// cluster churn, as the Manager's contract promises for every method.
// Some placement must deflate a resident, or the arena was never shared
// by a pressured pass.
func TestManagerConcurrentPlaceRemove(t *testing.T) {
	bus := &notify.Bus{}
	var delivered sync.Map
	defer bus.Subscribe(func(ev notify.Event) { delivered.Store(ev.VM, true) })()

	// Four servers hold 192 cores; the kept VMs alone ask for 288.
	m := newTestManager(t, 4, Config{Notify: bus})

	const (
		workers   = 8
		perWorker = 24
		minRounds = 16
	)
	// squeezed counts placements that deflated a resident: a successful
	// pressure placement whose newcomer kept its full size, so the room
	// it needed came from the residents. killed and missing hold evacuees
	// no server could host and the VMs a worker found gone; kept holds
	// the VMs placed and never removed.
	var squeezed atomic.Int64
	var kept, killed, missing sync.Map
	countSqueeze := func(dc hypervisor.DomainConfig, pl Placement) {
		if pl.Err == nil && pl.Path == PathPressure && pl.Initial == dc.Size {
			squeezed.Add(1)
		}
	}

	done := make(chan struct{})
	var capWG sync.WaitGroup
	capWG.Add(1)
	go func() { // the provider shrinks, grows, revokes and restores servers
		defer capWG.Done()
		record := func(ev Evacuation) {
			for i, pl := range ev.Placements {
				countSqueeze(ev.VMs[i], pl)
				if pl.Err != nil {
					killed.Store(ev.VMs[i].Name, true)
				}
			}
		}
		for r := 0; ; r++ {
			select {
			case <-done:
				if r >= minRounds {
					return
				}
			default:
			}
			shrunk, revoked := fmt.Sprintf("node-%d", r%4), fmt.Sprintf("node-%d", (r+2)%4)
			ev, err := m.ResizeServer(shrunk, serverCap().Scale(0.5))
			if err != nil {
				t.Errorf("shrink %s: %v", shrunk, err)
				return
			}
			record(ev)
			if ev, err = m.RevokeServers(revoked); err != nil {
				t.Errorf("revoke %s: %v", revoked, err)
				return
			}
			record(ev)
			if err := m.RestoreServer(revoked); err != nil {
				t.Errorf("restore %s: %v", revoked, err)
				return
			}
			if _, err := m.ResizeServer(shrunk, serverCap()); err != nil {
				t.Errorf("grow %s: %v", shrunk, err)
				return
			}
		}
	}()

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
				pl := m.PlaceVMs([]hypervisor.DomainConfig{dc}, nil)[0]
				if errors.Is(pl.Err, ErrNoCapacity) {
					continue // admission control under pressure is fine
				}
				if pl.Err != nil {
					t.Errorf("place %s: %v", name, pl.Err)
					return
				}
				countSqueeze(dc, pl)
				if _, _, err := m.LookupVM(name); errors.Is(err, ErrNotFound) {
					missing.Store(name, true) // a revocation may evacuate it onto nothing
					continue
				} else if err != nil {
					t.Errorf("lookup %s: %v", name, err)
					return
				}
				// Interleave cluster-wide reads with the churn.
				_ = m.Stats()
				_ = m.Servers()
				if i%2 == 0 {
					kept.Store(name, true)
					continue
				}
				if err := m.RemoveVM(name); errors.Is(err, ErrNotFound) {
					missing.Store(name, true)
				} else if err != nil {
					t.Errorf("remove %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	capWG.Wait()

	st := m.Stats()
	if st.Servers != 4 || st.Revoked != 0 {
		t.Errorf("servers = %d, %d revoked", st.Servers, st.Revoked)
	}
	// The outcomes fold to the manager's state after the dust settles:
	// every placement either stuck, was removed, was rejected or was an
	// evacuee no server could host.
	want := 0
	kept.Range(func(name, _ any) bool {
		if _, gone := killed.Load(name); !gone {
			want++
		}
		return true
	})
	missing.Range(func(name, _ any) bool {
		if _, gone := killed.Load(name); !gone {
			t.Errorf("%s vanished without being killed by an evacuation", name)
		}
		return true
	})
	if st.VMs != want {
		t.Errorf("placed VMs = %d, the workers' outcomes fold to %d", st.VMs, want)
	}
	if squeezed.Load() == 0 {
		t.Error("no placement deflated a resident: the passes never contended for the arena")
	}
	nKilled := 0
	killed.Range(func(_, _ any) bool { nKilled++; return true })
	t.Logf("%d placements deflated a resident; %d evacuees found no server", squeezed.Load(), nKilled)
}

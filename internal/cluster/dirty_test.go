package cluster

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"vmdeflate/internal/cluster/capindex"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/resources"
)

// provisioned returns a manager after a provisioning burst of n servers
// — AddServer marks each one dirty — and the one sync that drains them.
func provisioned(tb testing.TB, n int) *Manager {
	tb.Helper()
	m := NewManager(Config{})
	for i := 0; i < n; i++ {
		if _, err := m.AddServer(fmt.Sprintf("node-%05d", i), serverCap(), 0); err != nil {
			tb.Fatal(err)
		}
	}
	m.Stats()
	return m
}

// dirtyNames lists the queued servers in mark order.
func dirtyNames(m *Manager) []string {
	var out []string
	for _, s := range m.dirty {
		out = append(out, s.Host.Name())
	}
	return out
}

// indexEntry reads name's entry out of a capacity index: its key, its
// payload and whether it is present. The index exports no read of an
// entry (the manager only upserts, deletes and probes), so the test
// reads the node's fields by reflection, which reads unexported fields
// but cannot write them.
func indexEntry(ix *capindex.Index, name string) (key float64, free resources.Vector, ok bool) {
	nd := reflect.ValueOf(ix).Elem().Field(indexFields.nodes).MapIndex(reflect.ValueOf(name))
	if !nd.IsValid() {
		return 0, free, false
	}
	nd = nd.Elem()
	payload := nd.Field(indexFields.free)
	for k := range free {
		free[k] = payload.Index(k).Float()
	}
	return nd.Field(indexFields.key).Float(), free, true
}

// indexFields are the positions of the fields indexEntry reads: the
// index's nodes map, and a node's key and free payload.
var indexFields = func() (f struct{ nodes, key, free int }) {
	nodes, _ := reflect.TypeOf(capindex.Index{}).FieldByName("nodes")
	node := nodes.Type.Elem().Elem()
	key, _ := node.FieldByName("key")
	free, _ := node.FieldByName("free")
	f.nodes, f.key, f.free = nodes.Index[0], key.Index[0], free.Index[0]
	return f
}()

// sameAggBits reports whether two aggregate snapshots are bit-for-bit
// equal.
func sameAggBits(a, b hypervisor.Aggregates) bool {
	return sameBits(a.Committed, b.Committed) && sameBits(a.Allocated, b.Allocated) &&
		sameBits(a.DeflatableReserve, b.DeflatableReserve) && a.Running == b.Running && a.Deflated == b.Deflated
}

// checkServerCache syncs m and holds every server's cached placement
// state to a fresh derivation from its host, bit for bit: agg, free,
// freeShare and avail; every in-service server's surplus entry keyed by
// freeShare with payload free, and its bound entry keyed by
// boundKey(avail); and no revoked server in either index. A host write
// the manager did not mark leaves its server stale here. It also audits
// the placement index: every entry resolves on its server, and the
// entries number the servers' residents, so a teardown that deleted a
// placement under the wrong name shows after the op that did it.
func checkServerCache(t *testing.T, m *Manager) {
	t.Helper()
	m.syncDirty()
	inService, resident := map[int]int{}, 0
	for _, s := range m.servers {
		resident += len(s.Host.Domains())
		name := s.Host.Name()
		agg, total := s.Host.Aggregates(), s.Host.Capacity()
		free := total.Sub(agg.Allocated)
		share := free.DominantShare(total)
		avail := availabilityFrom(total, agg)
		if !sameAggBits(s.agg, agg) || !sameBits(s.free, free) ||
			math.Float64bits(s.freeShare) != math.Float64bits(share) || !sameBits(s.avail, avail) {
			t.Fatalf("server %s: cached agg %+v free %v share %v avail %v, fresh %+v %v %v %v",
				name, s.agg, s.free, s.freeShare, s.avail, agg, free, share, avail)
		}
		key, payload, inSurplus := indexEntry(m.indexes[s.Partition], name)
		bound, _, inBounds := indexEntry(m.bounds[s.Partition], name)
		if s.revoked {
			if inSurplus || inBounds {
				t.Fatalf("revoked server %s is indexed (surplus %v, bound %v)", name, inSurplus, inBounds)
			}
			continue
		}
		inService[s.Partition]++
		if !inSurplus || math.Float64bits(key) != math.Float64bits(share) || !sameBits(payload, free) {
			t.Fatalf("server %s: surplus entry (%v, key %v, payload %v), want key %v payload %v", name, inSurplus, key, payload, share, free)
		}
		if want := boundKey(avail); !inBounds || math.Float64bits(bound) != math.Float64bits(want) {
			t.Fatalf("server %s: bound entry (%v, key %v), want key %v", name, inBounds, bound, want)
		}
	}
	for pool, ix := range m.indexes {
		if ix.Len() != inService[pool] || m.bounds[pool].Len() != inService[pool] {
			t.Fatalf("pool %d indexes hold %d and %d entries, want its %d in-service servers", pool, ix.Len(), m.bounds[pool].Len(), inService[pool])
		}
	}
	for vm, s := range m.placements {
		if _, err := s.Host.Lookup(vm); err != nil {
			t.Fatalf("placement of %s on %s does not resolve: %v", vm, s.Host.Name(), err)
		}
	}
	if len(m.placements) != resident {
		t.Fatalf("%d placements for %d residents", len(m.placements), resident)
	}
}

// TestDirtyListDrainsInMarkOrderAndDeduplicated pins the dirty list's
// contract through the manager's own writes: a server written twice is
// queued once, at its first mark, the list keeps mark order, and a sync
// empties it and leaves every server re-markable. The writes that queue
// without a sync are provisioning and a server's round trip out of
// service (revoking an empty server writes no host; the restore marks
// it); a method that passes over a server it wrote syncs first.
func TestDirtyListDrainsInMarkOrderAndDeduplicated(t *testing.T) {
	m := NewManager(Config{})
	for _, name := range []string{"b", "c", "a"} {
		if _, err := m.AddServer(name, serverCap(), 0); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip := func(server string) {
		t.Helper()
		if _, err := m.RevokeServers(server); err != nil {
			t.Fatal(err)
		}
		if err := m.RestoreServer(server); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip("c") // c's second mark: still queued once, at its first
	if got := dirtyNames(m); !slices.Equal(got, []string{"b", "c", "a"}) {
		t.Fatalf("provisioning and a restore queued %v, want [b c a] in first-mark order", got)
	}
	m.Stats() // sync
	if len(m.dirty) != 0 {
		t.Fatalf("a sync left %v queued", dirtyNames(m))
	}

	// Equal free shares: the tightest fit is the first name, a.
	if _, s, err := m.PlaceVM(onDemandVM("vm-1", 1, 1024)); err != nil || s.Host.Name() != "a" {
		t.Fatalf("vm-1 landed on %v (err %v), want a", s, err)
	}
	roundTrip("b")
	if got := dirtyNames(m); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("queued %v, want [a b] in mark order", got)
	}
	checkServerCache(t, m)
	if len(m.dirty) != 0 {
		t.Fatal("a sync should empty the list")
	}
	for _, s := range m.servers {
		if s.queued {
			t.Errorf("%s still flagged queued after the sync", s.Host.Name())
		}
	}
	// A departure syncs after writing its server, and its pass moves no
	// allocation here: nothing stays queued.
	if err := m.RemoveVM("vm-1"); err != nil {
		t.Fatal(err)
	}
	if got := dirtyNames(m); len(got) != 0 {
		t.Fatalf("a departure left %v queued, want none", got)
	}
	roundTrip("b")
	if got := dirtyNames(m); !slices.Equal(got, []string{"b"}) {
		t.Fatalf("re-mark after a sync queued %v, want [b]", got)
	}
	checkServerCache(t, m)
}

// TestEveryMutatorMarksItsServer holds each manager entry point to the
// marking contract: after it, exactly the servers it wrote since its
// last sync are queued (RemoveVMs syncs before its passes, so only a
// pass's writes stay queued), and a sync brings every
// cached field back to a fresh derivation (checkServerCache). An entry
// point that writes no host queues nothing.
func TestEveryMutatorMarksItsServer(t *testing.T) {
	// fill places on-demand or deflatable VMs that take node's whole
	// capacity, in k slices.
	fill := func(t *testing.T, m *Manager, node string, k int, deflatable bool) {
		t.Helper()
		for i := 0; i < k; i++ {
			cores, mem := 48/float64(k), 131072/float64(k)
			dc := onDemandVM(fmt.Sprintf("%s-vm-%d", node, i), cores, mem)
			if deflatable {
				dc = deflatableVM(dc.Name, cores, mem, 0.5)
			}
			if _, s, err := m.PlaceVM(dc); err != nil || s.Host.Name() != node {
				t.Fatalf("%s landed on %v (err %v), want %s", dc.Name, s, err, node)
			}
		}
	}
	fillAll := func(t *testing.T, m *Manager, k int, deflatable bool) {
		t.Helper()
		for _, node := range []string{"node-0", "node-1", "node-2"} {
			fill(t, m, node, k, deflatable)
		}
	}
	cases := []struct {
		name  string
		setup func(t *testing.T, m *Manager)
		op    func(t *testing.T, m *Manager)
		want  []string
	}{
		{
			name: "PlaceVMs surplus",
			op: func(t *testing.T, m *Manager) {
				pl := m.PlaceVMs([]hypervisor.DomainConfig{onDemandVM("vm", 4, 8192)}, nil)[0]
				if pl.Err != nil || pl.Path != PathSurplus {
					t.Fatalf("placement %+v, want a surplus one", pl)
				}
			},
			want: []string{"node-0"},
		},
		{
			name: "PlaceVMs pressure",
			setup: func(t *testing.T, m *Manager) {
				fillAll(t, m, 4, true)
			},
			op: func(t *testing.T, m *Manager) {
				pl := m.PlaceVMs([]hypervisor.DomainConfig{onDemandVM("vm", 8, 16384)}, nil)[0]
				if pl.Err != nil || pl.Path != PathPressure || pl.Server.Host.Name() != "node-0" {
					t.Fatalf("placement %+v, want a pressure one on node-0", pl)
				}
			},
			want: []string{"node-0"},
		},
		{
			name:  "RemoveVMs, nothing to reinflate",
			setup: func(t *testing.T, m *Manager) { fill(t, m, "node-0", 2, false) },
			op: func(t *testing.T, m *Manager) {
				if err := m.RemoveVMs("node-0-vm-1"); err != nil {
					t.Fatal(err)
				}
			},
			// The sync after the teardown drained node-0, and no pass
			// moved an allocation.
		},
		{
			name: "RemoveVMs, reinflation moves",
			setup: func(t *testing.T, m *Manager) {
				fillAll(t, m, 4, true)
				if _, s, err := m.PlaceVM(onDemandVM("od", 8, 16384)); err != nil || s.Host.Name() != "node-0" {
					t.Fatalf("od landed on %v (err %v), want node-0", s, err)
				}
			},
			op: func(t *testing.T, m *Manager) {
				s := m.byName["node-0"]
				if s.Host.Aggregates().Deflated == 0 {
					t.Fatal("premise broken: nothing on node-0 is deflated")
				}
				if err := m.RemoveVMs("node-1-vm-0", "od"); err != nil {
					t.Fatal(err)
				}
				if n := s.Host.Aggregates().Deflated; n != 0 {
					t.Fatalf("%d residents of node-0 still deflated", n)
				}
			},
			// Both teardowns were synced before the passes; only node-0's
			// pass moved an allocation.
			want: []string{"node-0"},
		},
		{
			name:  "RevokeServers",
			setup: func(t *testing.T, m *Manager) { fill(t, m, "node-0", 1, false) },
			op: func(t *testing.T, m *Manager) {
				ev, err := m.RevokeServers("node-0")
				if err != nil || len(ev.Placements) != 1 || ev.Placements[0].Err != nil {
					t.Fatalf("revocation %+v (err %v), want one relocated VM", ev, err)
				}
			},
			// The evacuee's placement synced node-0's teardown, then
			// wrote node-1.
			want: []string{"node-1"},
		},
		{
			name: "RestoreServer",
			setup: func(t *testing.T, m *Manager) {
				if _, err := m.RevokeServers("node-2"); err != nil {
					t.Fatal(err)
				}
			},
			op: func(t *testing.T, m *Manager) {
				if err := m.RestoreServer("node-2"); err != nil {
					t.Fatal(err)
				}
			},
			want: []string{"node-2"},
		},
		{
			name:  "PlaceVMs rejected",
			setup: func(t *testing.T, m *Manager) { fillAll(t, m, 1, false) },
			op: func(t *testing.T, m *Manager) {
				pl := m.PlaceVMs([]hypervisor.DomainConfig{onDemandVM("vm", 4, 8192)}, nil)[0]
				if !errors.Is(pl.Err, ErrNoCapacity) {
					t.Fatalf("placement %+v, want an ErrNoCapacity rejection", pl)
				}
			},
		},
		{
			name: "PlaceVMs invalid config",
			op: func(t *testing.T, m *Manager) {
				pl := m.PlaceVMs([]hypervisor.DomainConfig{onDemandVM("tiny", 2, 128)}, nil)[0]
				if !errors.Is(pl.Err, hypervisor.ErrInvalid) {
					t.Fatalf("placement %+v, want hypervisor.ErrInvalid", pl)
				}
			},
		},
		{
			name:  "offered-load writes",
			setup: func(t *testing.T, m *Manager) { fill(t, m, "node-0", 4, true) },
			op: func(t *testing.T, m *Manager) {
				for i, d := range m.byName["node-0"].Host.Domains() {
					d.SetOfferedLoad(float64(1 + i))
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewManager(Config{})
			for i := 0; i < 3; i++ {
				if _, err := m.AddServer(fmt.Sprintf("node-%d", i), serverCap(), 0); err != nil {
					t.Fatal(err)
				}
			}
			if c.setup != nil {
				c.setup(t, m)
			}
			checkServerCache(t, m) // syncs: the op starts from an empty list
			c.op(t, m)
			if got := dirtyNames(m); !slices.Equal(got, c.want) {
				t.Fatalf("queued %v, want %v", got, c.want)
			}
			checkServerCache(t, m)
		})
	}
}

// TestDirtyDrainAfterBurstZeroAllocs: AddServer marks every server, so a
// provisioning burst queues the whole fleet once — and must not tax
// every later sync for it. After a 10,000-server burst and its sync,
// marking one server and syncing refreshes exactly that server and
// allocates nothing; BenchmarkDirtyDrain shows the cost beside a fresh
// manager's.
func TestDirtyDrainAfterBurstZeroAllocs(t *testing.T) {
	m := provisioned(t, 10000)
	s := m.servers[4321]
	got := testing.AllocsPerRun(200, func() {
		m.markDirty(s)
		if len(m.dirty) != 1 || m.dirty[0] != s {
			t.Fatalf("queued %d servers, want the one marked", len(m.dirty))
		}
		m.syncDirty()
		if len(m.dirty) != 0 || s.queued {
			t.Fatal("the sync left the server queued")
		}
	})
	if got != 0 {
		t.Errorf("mark-one-then-sync after a 10k burst allocates %.1f allocs/op, want 0", got)
	}
}

// BenchmarkDirtyDrain is mark-one-then-sync on a fresh one-server
// manager and on one whose dirty list once held a 10,000-server
// provisioning burst: dirtiness is tracked by handle, so the two cost
// the same (a name-keyed set paid a fleet-sized range + clear per sync
// after the burst).
func BenchmarkDirtyDrain(b *testing.B) {
	for _, n := range []int{1, 10000} {
		b.Run(fmt.Sprintf("burst=%d", n), func(b *testing.B) {
			m := provisioned(b, n)
			s := m.servers[n/2]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.markDirty(s)
				m.syncDirty()
			}
		})
	}
}

package cluster

import (
	"fmt"
	"testing"
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

// TestDirtyListDrainsSortedAndDeduplicated pins the dirty list's
// contract (the assertions capindex.DirtySet's own test used to hold): a
// server marked twice is queued once, a drain hands the servers back in
// name order whatever order they were marked in, and leaves the list
// empty and every server re-markable. Marks arrive the way they do in a
// run, through the hosts' aggregate-change callbacks.
func TestDirtyListDrainsSortedAndDeduplicated(t *testing.T) {
	m := NewManager(Config{})
	for _, name := range []string{"b", "c", "a"} {
		if _, err := m.AddServer(name, serverCap(), 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.drainDirty(); n != 3 || m.drained[0].Host.Name() != "a" || m.drained[1].Host.Name() != "b" || m.drained[2].Host.Name() != "c" {
		t.Fatalf("provisioning drain = %d servers, want a b c in name order", n)
	}
	if n := m.drainDirty(); n != 0 {
		t.Fatalf("drain of an empty list = %d", n)
	}

	define := func(server, vm string) {
		t.Helper()
		if _, err := m.byName[server].Host.Define(onDemandVM(vm, 1, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	define("b", "vm-1") // clean host -> edge -> mark b
	define("a", "vm-2")
	define("b", "vm-3") // host b is already stale: coalesced, and b is queued once
	m.markDirty(m.byName["b"])
	if len(m.dirty) != 2 {
		t.Fatalf("%d servers queued, want 2 (b marked three times, a once)", len(m.dirty))
	}
	if n := m.drainDirty(); n != 2 || m.drained[0].Host.Name() != "a" || m.drained[1].Host.Name() != "b" {
		t.Fatalf("drain = %d servers, want [a b]", n)
	}
	if len(m.dirty) != 0 {
		t.Fatal("drain should empty the list")
	}
	for _, s := range m.servers {
		if s.queued {
			t.Errorf("%s still flagged queued after the drain", s.Host.Name())
		}
	}
	m.markDirty(m.byName["b"])
	if n := m.drainDirty(); n != 1 || m.drained[0] != m.byName["b"] {
		t.Fatalf("re-mark after drain: drained %d", n)
	}
}

// TestDirtyDrainAfterBurstZeroAllocs: AddServer marks every server, so a
// provisioning burst queues the whole fleet once — and must not tax
// every later sync for it. After a 10,000-server burst and its drain,
// marking one server and draining hands back exactly that server and
// allocates nothing; BenchmarkDirtyDrain shows the cost beside a fresh
// manager's.
func TestDirtyDrainAfterBurstZeroAllocs(t *testing.T) {
	m := provisioned(t, 10000)
	s := m.servers[4321]
	got := testing.AllocsPerRun(200, func() {
		m.markDirty(s)
		if n := m.drainDirty(); n != 1 || m.drained[0] != s {
			t.Fatalf("drained %d servers, want the one marked", n)
		}
	})
	if got != 0 {
		t.Errorf("mark-one-then-drain after a 10k burst allocates %.1f allocs/op, want 0", got)
	}
}

// BenchmarkDirtyDrain is mark-one-then-drain on a fresh one-server
// manager and on one whose dirty list once held a 10,000-server
// provisioning burst: dirtiness is tracked by handle, so the two cost
// the same (a name-keyed set paid a fleet-sized range + clear per drain
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
				m.drainDirty()
			}
		})
	}
}

package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// opReader decodes a fuzz input one byte at a time; past the end it
// yields zeros and reports done.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) done() bool { return r.pos >= len(r.data) }

func (r *opReader) next(n int) int {
	if r.done() {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b) % n
}

// FuzzPlacementOps decodes a byte string into a configuration and an
// operation sequence — PlaceVMs batches of 1–16 (names repeated inside a
// batch or already live included), RemoveVMs, RevokeServers,
// RestoreServer, ResizeServer and SetOfferedLoad — and runs it against
// an indexed manager and the "fullscan" and "reference" oracles. Every
// step's outcome must read the same on all three — each placement
// record's path, server, error class and NeedsReclaim — its scan work
// must pass checkScanWork against the full scans, and compareManagers
// and checkServerCache must hold after it. The seeds are the churn suites' seeds, so
// `go test` runs them; `go test -fuzz FuzzPlacementOps` searches on.
// The decoder's first two bytes pick the policy and priority pools, and
// random seeds leave some of those 8 configurations unvisited; the
// config-pinned seeds overwrite those bytes so `go test` runs every
// configuration on four churn streams.
func FuzzPlacementOps(f *testing.F) {
	churn := func(seed int64) []byte {
		data := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(data)
		return data
	}
	for _, seed := range []int64{1, 2, 3, 5, 7, 11, 17, 19, 21} {
		f.Add(churn(seed))
	}
	for config := 0; config < 8; config++ {
		for _, seed := range []int64{1, 2, 3, 4} {
			data := churn(seed)
			data[0], data[1] = byte(config%4), byte(config/4)
			f.Add(data)
		}
	}
	f.Add([]byte(capacityChurn()))
	f.Fuzz(func(t *testing.T, data []byte) {
		runPlacementOps(t, &opReader{data: data})
	})
}

// opFold folds the indexed manager's records over a runPlacementOps
// stream: the VMs its arrival batches placed, the VMs its departures
// took off, the evacuees no server could host, and the successful
// pressure placements whose VM kept its full size, so that the room it
// needed came from deflating residents. After every op the manager holds
// exactly placed - removed - killed VMs.
type opFold struct {
	placed, removed, killed, squeezed int
}

// record folds one op's placement records; evacuated marks an
// evacuation's relocations, whose failures are kills.
func (f *opFold) record(pls []Placement, evacuated bool) {
	for _, pl := range pls {
		if pl.Err != nil {
			if evacuated {
				f.killed++
			}
			continue
		}
		if !evacuated {
			f.placed++
		}
		if pl.Path == PathPressure && pl.Initial == pl.Domain.MaxSize() {
			f.squeezed++
		}
	}
}

// placementStream encodes a runPlacementOps input op by op, so a named
// stream reads as the operations it drives. A departure names the
// oldest live VMs, so the stream must keep at least as many live.
type placementStream []byte

// newPlacementStream starts a stream on servers servers (3..8) under the
// policy of runPlacementOps' list at index policy, unpartitioned.
func newPlacementStream(policy, servers int) placementStream {
	return placementStream{byte(policy), 0, byte(servers - 3)}
}

// place appends one arrival batch of n VMs, the stream's VMs first to
// first+n-1: every fourth is on-demand at 2 cores and 4 GB, the others
// deflatable at priority 0.5 with 4 cores and 8 GB.
func (s *placementStream) place(first, n int) {
	*s = append(*s, 0, byte(n-1))
	for i := first; i < first+n; i++ {
		if i%4 == 0 {
			*s = append(*s, 1, 1, 0, 1, 2)
		} else {
			*s = append(*s, 3, 3, 1, 1, 2)
		}
	}
}

// remove appends a departure of the n (1..3) oldest live VMs.
func (s *placementStream) remove(n int) {
	*s = append(*s, 3, byte(n-1))
	for i := 0; i < n; i++ {
		*s = append(*s, byte(i))
	}
}

func (s *placementStream) revoke(server int)  { *s = append(*s, 4, 0, byte(server)) }
func (s *placementStream) restore(server int) { *s = append(*s, 5, byte(server)) }

// resize appends a resize of server to tenths/10 of its base capacity
// (4..12).
func (s *placementStream) resize(server, tenths int) {
	*s = append(*s, 6, byte(server), byte(tenths-4))
}

// capacityChurn is the stream TestPlacementOpsCapacityChurn runs: four
// servers filled to 168 of their 192 cores, then six rounds in which one
// server shrinks to half, another is revoked and restored and the first
// grows back, each step after an arrival batch that must take the
// pressure path, and three departures end each round.
func capacityChurn() placementStream {
	s, vms := newPlacementStream(0, 4), 0
	place := func(n int) {
		s.place(vms, n)
		vms += n
	}
	for range 3 {
		place(16)
	}
	for r := range 6 {
		shrunk, revoked := r%4, (r+2)%4
		place(4)
		s.resize(shrunk, 5)
		place(4)
		s.revoke(revoked)
		place(4)
		s.restore(revoked)
		place(4)
		s.resize(shrunk, 10)
		s.remove(3)
	}
	return s
}

// TestPlacementOpsCapacityChurn runs the capacity-churn stream through
// runPlacementOps: the provider shrinks, revokes, restores and grows
// servers between placements on a full cluster. Some placement must
// deflate a resident, or the stream never ran a pressured policy pass
// beside the capacity shocks, and the records must fold to the
// manager's VM count after every op (runPlacementOps checks that).
func TestPlacementOpsCapacityChurn(t *testing.T) {
	r := &opReader{data: capacityChurn()}
	fold := runPlacementOps(t, r)
	if !r.done() {
		t.Fatalf("the op cap stopped the stream at byte %d of %d", r.pos, len(r.data))
	}
	if fold.squeezed == 0 {
		t.Error("no placement deflated a resident: the capacity shocks never met a pressured pass")
	}
	if fold.removed == 0 {
		t.Error("premise broken: no departure removed a VM")
	}
	t.Logf("%d placed, %d removed, %d evacuees found no server, %d placements deflated a resident",
		fold.placed, fold.removed, fold.killed, fold.squeezed)
}

func runPlacementOps(t *testing.T, r *opReader) opFold {
	policies := []policy.Policy{policy.Proportional{}, policy.Priority{}, policy.Deterministic{}, policy.LatencyAware{}}
	cfg := Config{Policy: policies[r.next(len(policies))]}
	if r.next(2) == 1 {
		cfg.PartitionByPriority = true
	}
	labels := []string{"", "fullscan", "reference"}
	ms := make([]*Manager, len(labels))
	for i, oracle := range labels {
		ms[i] = newOracleManager(cfg, oracle)
	}

	nServers := 3 + r.next(6)
	server := func() string { return fmt.Sprintf("node-%d", r.next(nServers)) }
	for i := 0; i < nServers; i++ {
		spec := ServerSpec{Name: fmt.Sprintf("node-%d", i), Capacity: serverCap(), Partition: i % 4}
		for _, m := range ms {
			if _, err := m.AddServerSpec(spec); err != nil {
				t.Fatal(err)
			}
		}
	}

	var live []string // VMs live on the indexed manager, oldest first
	pick := func() string {
		if len(live) == 0 {
			return "vm-none"
		}
		return live[r.next(len(live))]
	}
	next := 0
	// pls holds each manager's outcome records of the current op.
	var pls [3][]Placement
	evacuation := func(i int, ev Evacuation, err error) string {
		pls[i] = ev.Placements
		return describeEvacuation(ev, err)
	}
	var fold opFold
	for op := 0; op < 64 && !r.done(); op++ {
		pls = [3][]Placement{}
		var step func(i int, m *Manager) string
		var born []string // fresh names this op introduces
		kind, before := r.next(8), len(ms[0].placements)
		switch kind {
		case 0, 1, 2: // arrival batch
			dcs := make([]hypervisor.DomainConfig, 1+r.next(16))
			for j := range dcs {
				name := fmt.Sprintf("vm-%d", next)
				next++
				dc := hypervisor.DomainConfig{
					Name:       name,
					Size:       resources.CPUMem(float64(1+r.next(24)), float64(2048*(1+r.next(24)))),
					Deflatable: r.next(3) != 0,
					Priority:   0.25 * float64(1+r.next(4)),
				}
				switch r.next(16) {
				case 0:
					if j > 0 {
						dc.Name = dcs[r.next(j)].Name
					}
				case 1:
					dc.Name = pick()
				}
				if dc.Name == name {
					born = append(born, name)
				}
				if !dc.Deflatable {
					dc.Priority = 0
				}
				dcs[j] = dc
			}
			step = func(i int, m *Manager) string {
				pls[i] = m.PlaceVMs(dcs, nil)
				return describePlacements(pls[i])
			}
		case 3: // departures, sometimes naming a VM that is gone
			names := make([]string, 1+r.next(3))
			for i := range names {
				names[i] = pick()
			}
			step = func(_ int, m *Manager) string { return fmt.Sprint(m.RemoveVMs(names...)) }
		case 4: // a revocation, sometimes of a revoked or repeated server
			names := make([]string, 1+r.next(2))
			for i := range names {
				names[i] = server()
			}
			step = func(i int, m *Manager) string {
				ev, err := m.RevokeServers(names...)
				return evacuation(i, ev, err)
			}
		case 5:
			name := server()
			step = func(_ int, m *Manager) string { return fmt.Sprint(m.RestoreServer(name)) }
		case 6:
			name, scale := server(), float64(4+r.next(9))/10 // 40%..120%
			step = func(i int, m *Manager) string {
				ev, err := m.ResizeServer(name, serverCap().Scale(scale))
				return evacuation(i, ev, err)
			}
		case 7: // a sample pass's load write
			name, load := pick(), float64(r.next(16))/2
			step = func(_ int, m *Manager) string {
				d, _, err := m.LookupVM(name)
				if err != nil {
					return err.Error()
				}
				d.SetOfferedLoad(load)
				return "load"
			}
		}
		want := step(0, ms[0])
		for i, m := range ms[1:] {
			if got := step(i+1, m); got != want {
				t.Fatalf("op %d: %s diverged from indexed:\n got %s\nwant %s", op, labels[i+1], got, want)
			}
			compareManagers(t, op, ms[0], m)
		}
		checkScanWork(t, op, pls[1], pls[2], false)
		checkScanWork(t, op, pls[1], pls[0], true)
		checkServerCaches(t, ms)
		if kind == 3 {
			fold.removed += before - len(ms[0].placements)
		}
		fold.record(pls[0], kind == 4 || kind == 6)
		if n, want := len(ms[0].placements), fold.placed-fold.removed-fold.killed; n != want {
			t.Fatalf("op %d: %d VMs placed, the records fold to %d (%+v)", op, n, want, fold)
		}
		live = slices.DeleteFunc(append(live, born...), func(name string) bool {
			_, _, err := ms[0].LookupVM(name)
			return err != nil
		})
	}
	return fold
}

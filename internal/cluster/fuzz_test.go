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
	f.Fuzz(func(t *testing.T, data []byte) {
		runPlacementOps(t, &opReader{data: data})
	})
}

func runPlacementOps(t *testing.T, r *opReader) {
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
	for op := 0; op < 64 && !r.done(); op++ {
		pls = [3][]Placement{}
		var step func(i int, m *Manager) string
		var born []string // fresh names this op introduces
		switch r.next(8) {
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
		live = slices.DeleteFunc(append(live, born...), func(name string) bool {
			_, _, err := ms[0].LookupVM(name)
			return err != nil
		})
	}
}

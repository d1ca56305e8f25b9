package cluster

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/notify"
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
// RestoreServer and SetOfferedLoad — and runs it against
// an indexed manager, the "fullscan" and "reference" oracles and an
// indexed manager that places each batch as a loop of one-element
// batches (runPlacementOps). `go test` runs the seeds below; `go test
// -fuzz FuzzPlacementOps` searches on. The decoder's first two bytes
// pick the policy and priority pools, and random seeds leave some of
// those 8 configurations unvisited; the config-pinned seeds overwrite
// those bytes so `go test` runs every configuration on four streams.
// The longer and wider streams are the named tests below
// (runNamedStream).
func FuzzPlacementOps(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 5, 7, 11, 17, 19, 21} {
		f.Add(seededBytes(seed, 512))
	}
	for config := 0; config < 8; config++ {
		for _, seed := range []int64{1, 2, 3, 4} {
			data := seededBytes(seed, 512)
			data[0], data[1] = byte(config%4), byte(config/4)
			f.Add(data)
		}
	}
	f.Add([]byte(capacityChurn()))
	f.Fuzz(func(t *testing.T, data []byte) {
		runPlacementOps(t, &opReader{data: data}, opsConfig{})
	})
}

// opFold folds the indexed manager's records over a runPlacementOps
// stream: the VMs its arrival batches placed, the VMs its departures
// took off, the evacuees no server could host, and the successful
// pressure placements whose VM kept its full size, so that the room it
// needed came from deflating residents. After every op the manager holds
// exactly placed - removed - killed VMs. It also counts what a named
// stream must reach: the ops run, the peak of live VMs, the revocations
// the manager accepted, the arrivals placed on the pressure path, the
// servers the pressure descent pruned, and the events the manager
// published, with those whose Old the check knew.
type opFold struct {
	placed, removed, killed, squeezed  int
	ops, peak, revokes                 int
	pressured, pruned, events, oldSeen int
}

// record folds one op's placement records; evacuated marks an
// evacuation's relocations, whose failures are kills.
func (f *opFold) record(pls []Placement, evacuated bool) {
	for _, pl := range pls {
		f.pruned += pl.Pruned
		if pl.Err != nil {
			if evacuated {
				f.killed++
			}
			continue
		}
		if !evacuated {
			f.placed++
			if pl.Path == PathPressure {
				f.pressured++
			}
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

// capacityChurn is the stream TestPlacementOpsCapacityChurn runs: four
// servers filled to 168 of their 192 cores, then six rounds in which one
// server is revoked and restored, each step after an arrival batch that
// must take the pressure path, and three departures end each round.
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
		revoked := (r + 2) % 4
		place(4)
		s.revoke(revoked)
		place(4)
		s.restore(revoked)
		place(4)
		s.remove(3)
	}
	return s
}

// TestPlacementOpsCapacityChurn runs the capacity-churn stream through
// runPlacementOps: the provider revokes and restores servers between
// placements on a full cluster. Some placement must
// deflate a resident, or the stream never ran a pressured policy pass
// beside the capacity shocks, and the records must fold to the
// manager's VM count after every op (runPlacementOps checks that).
func TestPlacementOpsCapacityChurn(t *testing.T) {
	r := &opReader{data: capacityChurn()}
	fold := runPlacementOps(t, r, opsConfig{})
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

// opsConfig widens a runPlacementOps stream past the fuzz shape: ops
// caps its length (64 when zero) and servers, when nonzero, replaces
// the 3..8 servers the stream's third byte picks.
type opsConfig struct {
	ops, servers int
}

// seededBytes returns n random bytes from seed.
func seededBytes(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// runNamedStream runs a churn suite's case through runPlacementOps:
// random bytes seeded by the test's full name, with the header pinned to
// policy (an index into runPlacementOps' list) and pools (priority
// partitioning), for exactly cfg.ops ops on cfg.servers servers. It must
// revoke, remove, place an arrival on the pressure path, prune
// a server and publish an event at least once, and know the Old of half
// its events, or it drove less than the churn it stands for. It returns
// the stream's fold.
func runNamedStream(t *testing.T, policy int, pools bool, cfg opsConfig) opFold {
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	data := seededBytes(int64(h.Sum64()), 64*cfg.ops)
	data[0], data[1] = byte(policy), 0
	if pools {
		data[1] = 1
	}
	f := runPlacementOps(t, &opReader{data: data}, cfg)
	if f.ops != cfg.ops {
		t.Fatalf("the stream ran out after %d of %d ops", f.ops, cfg.ops)
	}
	if f.revokes == 0 || f.removed == 0 || f.pressured == 0 || f.pruned == 0 || f.events == 0 || f.oldSeen < f.events/2 {
		t.Errorf("vacuous stream: %+v", f)
	}
	t.Logf("%d ops on %d servers, at most %d live VMs: %+v", f.ops, cfg.servers, f.peak, f)
	return f
}

// runSeeds runs runNamedStream as the subtests prefix+"seed=N"; each
// subtest's full name seeds its bytes.
func runSeeds(t *testing.T, prefix string, policy int, pools bool, cfg opsConfig, seeds ...int) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("%sseed=%d", prefix, seed), func(t *testing.T) { runNamedStream(t, policy, pools, cfg) })
	}
}

// TestPlaceVMsMatchesPlaceVMLoopAndReference is the "commit order is
// trace order" invariant on six servers, so later VMs of a batch land
// on what earlier ones consumed: a batch places as a loop of
// one-element batches, with the same scan work, and both as the
// reference; under the priority policy, plain and in priority pools.
// pools-resize runs the pools on four servers, one per pool, so a
// revoked server's evacuees have no other server in their pool. It
// keeps the name it had while the stream also resized servers: the
// name seeds the stream's bytes.
func TestPlaceVMsMatchesPlaceVMLoopAndReference(t *testing.T) {
	cfg := opsConfig{ops: 120, servers: 6}
	runSeeds(t, "", 1, false, cfg, 1, 2, 3)
	runSeeds(t, "pools/", 1, true, cfg, 1, 2, 3)
	runSeeds(t, "pools-resize/", 1, true, opsConfig{ops: 120, servers: 4}, 1, 2, 3)
}

// TestIndexedPlacementMatchesReference and its two variants hold the
// capacity index to the reference on longer streams: twelve servers
// under the proportional policy, eight under the priority policy, and
// twelve in priority pools.
func TestIndexedPlacementMatchesReference(t *testing.T) {
	runSeeds(t, "", 0, false, opsConfig{ops: 150, servers: 12}, 1, 2, 3)
}

func TestIndexedPlacementMatchesReferencePriorityPolicy(t *testing.T) {
	runNamedStream(t, 1, false, opsConfig{ops: 120, servers: 8})
}

func TestIndexedPlacementMatchesReferencePartitioned(t *testing.T) {
	runNamedStream(t, 1, true, opsConfig{ops: 150, servers: 12})
}

// TestRevocationChurnMatchesAcrossEngines runs capacity shocks on twelve
// servers under the priority and the proportional policy, plain and in
// priority pools, whose evacuations re-place through the pool filter.
func TestRevocationChurnMatchesAcrossEngines(t *testing.T) {
	cfg := opsConfig{ops: 60, servers: 12}
	runSeeds(t, "", 1, false, cfg, 1, 2, 3)
	runSeeds(t, "proportional/", 0, false, cfg, 1, 2, 3)
	runSeeds(t, "pools/", 1, true, cfg, 1, 2, 3)
	runSeeds(t, "pools-proportional/", 0, true, cfg, 1, 2, 3)
}

// TestPressureShockChurnDifferential runs 160 ops on ten servers, so
// revokes interleave with placements on a full cluster: the pressure
// index's bound keys must track servers leaving and returning
// mid-stream.
func TestPressureShockChurnDifferential(t *testing.T) {
	runSeeds(t, "", 1, false, opsConfig{ops: 160, servers: 10}, 7, 19)
}

// TestChurnNeverOverAllocates runs the smallest fleet, three servers,
// where no in-service server may be allocated beyond its capacity after
// any op (runPlacementOps checks it on every stream).
func TestChurnNeverOverAllocates(t *testing.T) {
	runNamedStream(t, 1, false, opsConfig{ops: 60, servers: 3})
}

// runPlacementOps decodes r into a configuration and at most cfg.ops
// ops and runs each op on four managers: the indexed one, the
// "fullscan" and "reference" oracles, and an indexed manager that places
// each arrival batch as a loop of one-element PlaceVMs calls. Every op's
// outcome (each placement record's path, server, error class,
// NeedsReclaim and initial allocation) must read the same on all four;
// the loop's scan work must equal the batch's record by record, and
// every record's must pass checkScanWork against the full scan's. After
// every op the four must agree on Stats, every server's cache must
// match a fresh derivation (checkServerCache), no in-service server may
// be allocated beyond its capacity, every event the indexed manager
// published must equal its domain's own reads, and it must hold
// exactly the VMs its records fold to, and every handle a placement
// record ever held must either be the one its host's Lookup hands out
// for the name it reads or, once its VM has left (even after another
// VM took its row slot), read no name. Under the proportional policy,
// every server a departure batch took a VM from must sit at the
// water-fill fixed point of reinflation (checkReinflated). Op kind 6
// does nothing: no server is resized, and its two argument bytes are
// skipped, so older inputs decode alike.
func runPlacementOps(t *testing.T, r *opReader, cfg opsConfig) opFold {
	policies := []policy.Policy{policy.Proportional{}, policy.Priority{}, policy.Deterministic{}, policy.LatencyAware{}}
	mcfg := Config{Policy: policies[r.next(len(policies))]}
	_, proportional := mcfg.Policy.(policy.Proportional)
	if r.next(2) == 1 {
		mcfg.PartitionByPriority = true
	}
	labels := []string{"", "fullscan", "reference", "loop"}
	ms := make([]*Manager, len(labels))
	for i, oracle := range labels {
		ms[i] = newOracleManager(mcfg, oracle)
	}
	var fold opFold
	// Each event the indexed manager publishes must read as its domain
	// does while it is delivered: New and DeflationFraction read back,
	// Kind classified from Old, and Old the allocation the domain had
	// going into the op or at its last event, where cur knows it.
	var bus notify.Bus
	ms[0].cfg.Notify = &bus
	cur := map[hypervisor.Domain]resources.Vector{}
	bus.Subscribe(func(ev notify.Event) {
		fold.events++
		s := ms[0].byName[ev.Server]
		if s == nil {
			t.Fatalf("event names unknown server %q", ev.Server)
		}
		d, err := s.Host.Lookup(ev.VM)
		if err != nil {
			t.Fatalf("event for %s on %s: %v", ev.VM, ev.Server, err)
		}
		want := notify.Event{VM: d.Name(), Server: d.Host().Name(), Old: ev.Old, New: d.Allocation(),
			DeflationFraction: d.Allocation().DeflationFraction(d.MaxSize())}
		if old, ok := cur[d]; ok {
			want.Old = old
			fold.oldSeen++
		}
		want.Kind = notify.Classify(want.Old, want.New)
		if ev != want || ev.Old == ev.New {
			t.Fatalf("published event\n got %+v\nwant %+v", ev, want)
		}
		cur[d] = ev.New
	})

	nServers := 3 + r.next(6)
	if cfg.servers > 0 {
		nServers = cfg.servers
	}
	if cfg.ops == 0 {
		cfg.ops = 64
	}
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
	// pls holds each manager's outcome records of the current op;
	// shocked reports whether the indexed manager accepted its
	// revocation.
	var pls [4][]Placement
	var shocked bool
	evacuation := func(i int, ev Evacuation, err error) string {
		pls[i] = ev.Placements
		if i == 0 {
			shocked = err == nil
		}
		return describeEvacuation(ev, err)
	}
	for op := 0; op < cfg.ops && !r.done(); op++ {
		pls, shocked = [4][]Placement{}, false
		var step func(i int, m *Manager) string
		var born []string             // fresh names this op introduces
		var leaving map[string]string // a departure batch's placed VMs and their servers
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
				if labels[i] == "loop" {
					pls[i] = placeLoop(m, dcs)
				} else {
					pls[i] = m.PlaceVMs(dcs, nil)
				}
				return describePlacements(pls[i])
			}
		case 3: // departures, sometimes naming a VM that is gone
			names := make([]string, 1+r.next(3))
			leaving = map[string]string{}
			for i := range names {
				names[i] = pick()
				if s, ok := ms[0].placements[names[i]]; ok {
					leaving[names[i]] = s.Host.Name()
				}
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
		case 6: // no op
			server()
			r.next(9)
			step = func(int, *Manager) string { return "" }
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
		for j, pl := range pls[3] {
			if b := pls[0][j]; pl.Scored != b.Scored || pl.Pruned != b.Pruned {
				t.Fatalf("op %d, record %d: scan work %d/%d in the loop, %d/%d in the batch", op, j, pl.Scored, pl.Pruned, b.Scored, b.Pruned)
			}
		}
		checkServerCaches(t, ms)
		for i, m := range ms {
			for _, s := range m.servers {
				if !s.revoked && !s.agg.Allocated.FitsIn(s.Host.Capacity()) {
					t.Fatalf("op %d: %s server %s allocates %v beyond its capacity %v", op, labels[i], s.Host.Name(), s.agg.Allocated, s.Host.Capacity())
				}
			}
		}
		for vm, server := range leaving {
			if _, stayed := ms[0].placements[vm]; !stayed && proportional {
				for i, m := range ms {
					checkReinflated(t, op, labels[i], m.byName[server])
				}
			}
		}
		switch {
		case kind == 3:
			fold.removed += before - len(ms[0].placements)
		case kind == 4 && shocked:
			fold.revokes++
		}
		fold.record(pls[0], kind == 4)
		for _, pl := range pls[0] {
			if pl.Err == nil {
				cur[pl.Domain] = pl.Domain.Allocation()
			}
		}
		for d := range cur {
			if name := d.Name(); name != "" {
				if live, err := d.Host().Lookup(name); err != nil || live != d {
					t.Fatalf("op %d: a handle from a placement record reads %s, which its host holds under %+v (%v)", op, name, live, err)
				}
			}
		}
		if n, want := len(ms[0].placements), fold.placed-fold.removed-fold.killed; n != want {
			t.Fatalf("op %d: %d VMs placed, the records fold to %d (%+v)", op, n, want, fold)
		}
		fold.ops, fold.peak = op+1, max(fold.peak, len(ms[0].placements))
		live = slices.DeleteFunc(append(live, born...), func(name string) bool {
			_, ok := ms[0].placements[name]
			return !ok
		})
	}
	return fold
}

// checkReinflated holds a server that just ran a reinflation pass (a
// departure took a VM from it) to the proportional policy's water-fill
// fixed point: on every dimension, either each running deflatable
// resident is at its size, or the host's fresh free capacity is zero.
// Both hold within a relative 1e-9: the water-fill's min + alpha*(max -
// min) can land an ulp below max (a 13-core VM at 12.999999999999998
// with a core free).
func checkReinflated(t *testing.T, op int, label string, s *Server) {
	t.Helper()
	capacity := s.Host.Capacity()
	free := capacity.Sub(s.Host.Aggregates().Allocated)
	for _, k := range resources.Kinds {
		if free[k] <= 1e-9*capacity[k] {
			continue
		}
		for _, d := range s.Host.Domains() {
			if size := d.MaxSize()[k]; d.State() == hypervisor.Running && d.Config().Deflatable && d.Allocation()[k] < size-1e-9*size {
				t.Fatalf("op %d: %s server %s keeps %g of %v free, and its resident %s holds %g of its %g after reinflation",
					op, label, s.Host.Name(), free[k], k, d.Name(), d.Allocation()[k], d.MaxSize()[k])
			}
		}
	}
}

// checkServerCaches runs checkServerCache on each manager.
func checkServerCaches(t *testing.T, managers []*Manager) {
	t.Helper()
	for _, m := range managers {
		checkServerCache(t, m)
	}
}

// compareManagers asserts the cluster-wide stats of the two managers are
// identical.
func compareManagers(t *testing.T, op int, a, b *Manager) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("op %d: stats diverged:\nindexed   %+v\nreference %+v", op, sa, sb)
	}
}

// checkScanWork holds one op's outcome records, from two managers that
// ran it in lockstep, to the scan-work invariants record by record. full
// comes from a full-scan oracle, which scores every pool server and
// prunes none, so a second full scan (indexed false) agrees with it
// exactly. The indexed descent scores or prunes each of those servers
// exactly once.
func checkScanWork(t *testing.T, op int, full, got []Placement, indexed bool) {
	t.Helper()
	for i, f := range full {
		g := got[i]
		if f.Pruned != 0 {
			t.Fatalf("op %d, record %d: the full scan pruned %d servers", op, i, f.Pruned)
		}
		if !indexed {
			if g.Scored != f.Scored || g.Pruned != 0 {
				t.Fatalf("op %d, record %d: full scans scored %d/%d, pruned %d", op, i, g.Scored, f.Scored, g.Pruned)
			}
			continue
		}
		if n := g.Scored + g.Pruned; n != f.Scored {
			t.Fatalf("op %d, record %d: descent scored %d + pruned %d against the full scan's %d",
				op, i, g.Scored, g.Pruned, f.Scored)
		}
	}
}

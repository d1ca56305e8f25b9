package cluster

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/resources"
)

// TestRevokeServerEvacuatesVMs is a named stream of runPlacementOps:
// eight VMs on three servers, their server revoked, eight more placed
// while it is out, and then restored and eight more placed. Every
// evacuee must re-place, every placement must match the reference's,
// which never picks a revoked server, and the stream must end with
// every VM placed.
func TestRevokeServerEvacuatesVMs(t *testing.T) {
	s := newPlacementStream(1, 3)
	s.place(0, 8)
	s.revoke(0)
	s.place(8, 8)
	s.restore(0)
	s.place(16, 8)
	if f := runPlacementOps(t, &opReader{data: s}, opsConfig{}); f.revokes != 1 || f.killed != 0 || f.placed != 24 {
		t.Errorf("want one lossless revocation among 24 placements: %+v", f)
	}
}

func TestRevokeRestoreLifecycleErrors(t *testing.T) {
	m := newTestManager(t, 2, Config{})
	if _, err := m.RevokeServer("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("revoke unknown server err = %v", err)
	}
	if err := m.RestoreServer("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("restore unknown server err = %v", err)
	}
	if err := m.RestoreServer("node-0"); !errors.Is(err, ErrRevoked) {
		t.Errorf("restore in-service server err = %v", err)
	}
	if _, err := m.RevokeServers("node-0", "node-0"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate revoke batch err = %v", err)
	}
	if _, err := m.RevokeServer("node-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RevokeServer("node-0"); !errors.Is(err, ErrRevoked) {
		t.Errorf("double revoke err = %v", err)
	}
	if _, err := m.ResizeServer("node-0", serverCap().Scale(0.5)); !errors.Is(err, ErrRevoked) {
		t.Errorf("resize of revoked server err = %v", err)
	}
	if err := m.RestoreServer("node-0"); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreServer("node-0"); !errors.Is(err, ErrRevoked) {
		t.Errorf("double restore err = %v", err)
	}
}

func TestRevokeKillsWhenNoCapacity(t *testing.T) {
	// Two servers, both filled with on-demand VMs that cannot deflate:
	// revoking one leaves nowhere for its residents to go.
	m := newTestManager(t, 2, Config{})
	for i := 0; i < 2; i++ {
		if _, _, err := m.PlaceVM(onDemandVM(fmt.Sprintf("od-%d", i), 48, 131072)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := m.RevokeServer("node-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.VMs) != 1 || kills(out) != 1 {
		t.Fatalf("outcome = %d displaced / %d killed, want 1/1", len(out.VMs), kills(out))
	}
	// The relocation failed in the pressure ranking, not at a gate.
	if pl := out.Placements[0]; !errors.Is(pl.Err, ErrNoCapacity) || pl.Path != PathPressure {
		t.Fatalf("kill: path %d, err %v", pl.Path, pl.Err)
	}
	if _, _, err := m.LookupVM(out.VMs[0].Name); !errors.Is(err, ErrNotFound) {
		t.Fatalf("killed VM still placed: %v", err)
	}
	if m.Stats().VMs != 1 {
		t.Fatalf("VMs = %d after kill, want 1", m.Stats().VMs)
	}
}

// TestResizeServerShrinkDeflates is a named stream of runPlacementOps
// under the proportional policy: twelve VMs (42 cores) on one of three
// servers, which shrinks to half its capacity and grows back. No
// in-service server may be allocated beyond its capacity, no VM may be
// lost, and the grown server must reinflate its residents
// (checkReinflated).
func TestResizeServerShrinkDeflates(t *testing.T) {
	s := newPlacementStream(0, 3)
	s.place(0, 12)
	s.resize(0, 5)
	s.resize(0, 10)
	if f := runPlacementOps(t, &opReader{data: s}, opsConfig{}); f.resizes != 2 || f.killed != 0 {
		t.Errorf("want two lossless resizes: %+v", f)
	}
}

// TestResizeServerRejectsInvalidCapacity: a resize to a NaN or an
// all-zero capacity fails with hypervisor.ErrInvalid and leaves the
// server as it was: its host's capacity, its cached state and both of
// its index entries, bit for bit.
func TestResizeServerRejectsInvalidCapacity(t *testing.T) {
	nan := serverCap()
	nan[resources.CPU] = math.NaN()
	for name, capacity := range map[string]resources.Vector{"nan": nan, "zero": {}} {
		t.Run(name, func(t *testing.T) {
			m := newTestManager(t, 1, Config{})
			for i := 0; i < 5; i++ {
				if _, _, err := m.PlaceVM(deflatableVM(fmt.Sprintf("vm-%d", i), 12, 32768, 0.5)); err != nil {
					t.Fatal(err)
				}
			}
			m.syncDirty()
			s := m.Servers()[0]
			type state struct {
				capacity, free, avail, surplus resources.Vector
				agg                            hypervisor.Aggregates
				share, key, bound              float64
			}
			read := func() state {
				st := state{capacity: s.Host.Capacity(), free: s.free, avail: s.avail, agg: s.agg, share: s.freeShare}
				st.key, st.surplus, _ = indexEntry(m.indexes[s.Partition], "node-0")
				st.bound, _, _ = indexEntry(m.bounds[s.Partition], "node-0")
				return st
			}
			before := read()
			if s.agg.Deflated == 0 {
				t.Fatal("setup: no resident is deflated")
			}
			if _, err := m.ResizeServer("node-0", capacity); !errors.Is(err, hypervisor.ErrInvalid) {
				t.Fatalf("resize to %v: err = %v, want hypervisor.ErrInvalid", capacity, err)
			}
			m.syncDirty()
			after := read()
			if !sameBits(after.capacity, before.capacity) || !sameBits(after.free, before.free) ||
				!sameBits(after.avail, before.avail) || !sameBits(after.surplus, before.surplus) ||
				!sameAggBits(after.agg, before.agg) || math.Float64bits(after.share) != math.Float64bits(before.share) ||
				math.Float64bits(after.key) != math.Float64bits(before.key) || math.Float64bits(after.bound) != math.Float64bits(before.bound) {
				t.Fatalf("a refused resize moved the server:\nbefore %+v\n after %+v", before, after)
			}
			checkServerCache(t, m)
		})
	}
}

func TestResizeServerShrinkDisplaces(t *testing.T) {
	// Shrinking below the residents' floors forces displacement; the
	// displaced VMs must land on the second server, lowest priority
	// first.
	m := newTestManager(t, 2, Config{})
	// Two residents, each deflatable to hypervisor.DefaultFloor: the
	// shrunk capacity holds one floor but not two, so exactly one VM
	// must be displaced even at maximal deflation.
	floor := hypervisor.DefaultFloor()
	shrunk := floor.Scale(1.5)
	var target *Server
	for i := 0; i < 2; i++ {
		dc := deflatableVM(fmt.Sprintf("vm-%d", i), 20, 49152, 0.25*float64(2-i)) // name order is not priority order
		_, s, err := m.PlaceVM(dc)
		if err != nil {
			t.Fatal(err)
		}
		if target == nil {
			target = s
		} else if s != target {
			t.Fatalf("setup: VMs spread across servers")
		}
	}
	out, err := m.ResizeServer(target.Host.Name(), shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.VMs) != 1 {
		t.Fatalf("shrink to %v displaced %d VMs, want 1", shrunk, len(out.VMs))
	}
	if out.VMs[0].Priority != 0.25 {
		t.Fatalf("displacement order: first victim priority %g, want the lowest (0.25)", out.VMs[0].Priority)
	}
	if n := kills(out); n != 0 {
		t.Fatalf("displaced VMs killed (%d) with an empty server available", n)
	}
	// The survivor deflates just enough to fit: the pass reads the cache
	// synced after the displacement, not the one that still counts it.
	if alloc := target.Host.Aggregates().Allocated; !alloc.FitsIn(shrunk) || !shrunk.Sub(alloc).FitsIn(resources.CPUMem(1e-6, 1e-6)) {
		t.Fatalf("allocated %v on the shrunk server, want the survivor deflated to the capacity %v", alloc, shrunk)
	}
}

// describeEvacuation renders a capacity-shock outcome comparably: the
// displaced VMs in evacuation order, then their relocation records.
func describeEvacuation(out Evacuation, err error) string {
	if err != nil {
		return fmt.Sprintf("err=%v", err)
	}
	var s strings.Builder
	for _, dc := range out.VMs {
		s.WriteString(dc.Name + " ")
	}
	return s.String() + describePlacements(out.Placements)
}

// kills folds an evacuation's records: how many displaced VMs no server
// could host.
func kills(out Evacuation) int {
	n := 0
	for _, pl := range out.Placements {
		if pl.Err != nil {
			n++
		}
	}
	return n
}

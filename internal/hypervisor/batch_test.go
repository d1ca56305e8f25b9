package hypervisor

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"vmdeflate/internal/resources"
)

// The batched limit write (Host.SetLimits) against the per-VM
// Domain.SetLimits sequence it replaces in the cluster's policy passes.

// rowsOf copies the host's live rows in name order, so twin hosts'
// tables (engaged limits included) compare by value.
func rowsOf(h *Host) []row {
	out := make([]row, len(h.order))
	for i, slot := range h.order {
		out[i] = h.rows[slot]
	}
	return out
}

// sameVectorBits reports whether a and b are bit-for-bit equal.
func sameVectorBits(a, b resources.Vector) bool {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// sameAggregateBits reports whether two aggregates are bit-for-bit equal.
func sameAggregateBits(a, b Aggregates) bool {
	return sameVectorBits(a.Committed, b.Committed) && sameVectorBits(a.Allocated, b.Allocated) &&
		sameVectorBits(a.DeflatableReserve, b.DeflatableReserve) && a.Running == b.Running && a.Deflated == b.Deflated
}

// FuzzLimitWritesMatchPerVM holds one batched limit write to the
// sequence of per-VM SetLimits calls it replaces, on twin hosts decoded
// from the same bytes: up to six domains of mixed sizes (with and
// without I/O dimensions, running or not, some with limits engaged
// beforehand) and a batch of up to eight writes that may repeat a
// domain, carry zero, negative or NaN components, or name a domain of
// another host. A batch with an invalid entry is refused whole: the
// error wraps ErrInvalid (with the text the per-VM call gives for the
// first bad component) and nothing moves — no limit, row, aggregate,
// epoch, nor the caller's vectors. A valid batch must leave the same
// achieved allocations, limits, rows and aggregate bits as the per-VM
// sequence, and move its host's epoch by exactly one if and only if
// some write of the sequence moved an allocation.
//
//	go test -run '^$' -fuzz FuzzLimitWritesMatchPerVM -fuzztime 15s -fuzzminimizetime 200x ./internal/hypervisor
func FuzzLimitWritesMatchPerVM(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 1, 1, 0, 0, 2, 3, 4, 1, 5, 0, 1, 3, 1, 2, 4, 2, 2, 2, 3, 5, 6, 7, 4, 0, 3, 3, 9, 8, 0})
	f.Add([]byte{5, 4, 0, 0, 0, 1, 8, 8, 8, 8, 3, 3, 1, 1, 1, 7, 9, 9, 9, 9, 6, 0, 8, 9, 9, 9, 9, 1, 2, 3, 4, 5, 5, 0, 9, 7, 9})
	f.Add([]byte{2, 0, 1, 1, 2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 15, 2, 2, 2, 2, 0, 1, 10, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		limit := func() resources.Vector {
			var v resources.Vector
			for k := range v {
				v[k] = fuzzLimits[in.next()%byte(len(fuzzLimits))]
			}
			return v
		}
		hb, hs := testHost(t), testHost(t) // batched, per-VM
		other := testHost(t)
		foreign, err := other.Define(DomainConfig{Name: "foreign", Size: resources.New(2, 4096, 0, 0)})
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + int(in.next()%6)
		db, ds := make([]Domain, n), make([]Domain, n)
		for i := range db {
			size := resources.New(fuzzCores[1+in.next()%5], fuzzMemMB[1+in.next()%3], 0, 0)
			if in.next()%2 == 1 {
				size = size.With(resources.DiskBW, 100).With(resources.NetBW, 1000)
			}
			cfg := DomainConfig{Name: fmt.Sprintf("vm-%d", i), Size: size, Deflatable: in.next()%2 == 0, Priority: 0.5}
			start, pre := in.next()%3 != 0, limit()
			for _, p := range []struct {
				h *Host
				d *Domain
			}{{hb, &db[i]}, {hs, &ds[i]}} {
				d, err := p.h.Define(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if start {
					if err := d.Start(); err != nil {
						t.Fatal(err)
					}
				}
				d.SetLimits(pre) // an invalid one moves nothing, on both hosts alike
				*p.d = *d
			}
		}

		m := int(in.next() % 9)
		idx := make([]int, m) // -1 is the foreign domain
		batch, lims := make([]Domain, m), make([]resources.Vector, m)
		for j := range batch {
			if c := in.next(); c%16 == 15 {
				idx[j], batch[j] = -1, *foreign
			} else {
				idx[j] = int(c) % n
				batch[j] = db[idx[j]]
			}
			lims[j] = limit()
		}
		// The first invalid entry, if any, in batch order.
		bad := -1
		for j := 0; j < m && bad < 0; j++ {
			if idx[j] < 0 {
				bad = j
			}
			for _, x := range lims[j] {
				if !(x >= 0) {
					bad = j
				}
			}
		}

		epochB, epochS := hb.AllocEpoch(), hs.AllocEpoch()
		beforeB, beforeRows := make([]limitState, n), rowsOf(hb)
		for i, d := range db {
			beforeB[i] = limitStateOf(d)
		}
		got := append([]resources.Vector(nil), lims...)
		errB := hb.SetLimits(batch, got)

		if bad >= 0 {
			if !errors.Is(errB, ErrInvalid) {
				t.Fatalf("batch with invalid entry %d (%v): err = %v, want ErrInvalid", bad, lims[bad], errB)
			}
			if idx[bad] >= 0 {
				_, errS := ds[idx[bad]].SetLimits(lims[bad])
				if errS == nil || errS.Error() != errB.Error() {
					t.Fatalf("batch refused with %q, the per-VM call with %v", errB, errS)
				}
			}
			for i, d := range db {
				if after := limitStateOf(d); after != beforeB[i] {
					t.Fatalf("refused batch moved %s: %+v -> %+v", d.Name(), beforeB[i], after)
				}
			}
			for j := range got {
				if !sameVectorBits(got[j], lims[j]) {
					t.Fatalf("refused batch rewrote entry %d: %v -> %v", j, lims[j], got[j])
				}
			}
			if hb.AllocEpoch() != epochB {
				t.Fatalf("refused batch moved the epoch %d -> %d", epochB, hb.AllocEpoch())
			}
		} else {
			if errB != nil {
				t.Fatalf("valid batch: %v", errB)
			}
			// moved: some write of the sequence moved an allocation (a
			// domain written twice may move and move back).
			moved, movers := false, uint64(0)
			for j := range batch {
				prev := ds[idx[j]].Allocation()
				want, err := ds[idx[j]].SetLimits(lims[j])
				if err != nil {
					t.Fatalf("per-VM write %d: %v", j, err)
				}
				if !sameVectorBits(got[j], want) {
					t.Fatalf("entry %d on %s: batch achieved %v, the per-VM write %v", j, batch[j].Name(), got[j], want)
				}
				if want != prev {
					moved = true
					movers++
				}
			}
			if hs.AllocEpoch() != epochS+movers {
				t.Fatalf("%d per-VM writes moved an allocation, yet moved the epoch %d -> %d", movers, epochS, hs.AllocEpoch())
			}
			for i, d := range db {
				a := d.Allocation()
				if a != beforeB[i].alloc && !moved {
					t.Fatalf("%s moved %v -> %v, yet no per-VM write moved the epoch", d.Name(), beforeB[i].alloc, a)
				}
				if !sameVectorBits(a, ds[i].Allocation()) || d.row().limits != ds[i].row().limits {
					t.Fatalf("%s: batch left allocation %v limits %v, per-VM %v limits %v",
						d.Name(), a, d.row().limits, ds[i].Allocation(), ds[i].row().limits)
				}
			}
			wantEpoch := epochB
			if moved {
				wantEpoch = epochB + 1
			}
			if hb.AllocEpoch() != wantEpoch {
				t.Fatalf("batch (allocation moved: %v) moved the epoch %d -> %d", moved, epochB, hb.AllocEpoch())
			}
			if !moved {
				// Only the limits column may move: a limit at or above
				// the size engages without moving the allocation.
				for i, r := range rowsOf(hb) {
					b := beforeRows[i]
					r.limits, b.limits = resources.Vector{}, resources.Vector{}
					if r != b {
						t.Fatalf("no allocation moved, yet row %s went %+v -> %+v", r.name, beforeRows[i], r)
					}
				}
			}
		}
		rb, rs := rowsOf(hb), rowsOf(hs)
		for i := range rb {
			if rb[i] != rs[i] {
				t.Fatalf("row %s: batch %+v, per-VM %+v", rb[i].name, rb[i], rs[i])
			}
		}
		if ab, as := hb.Aggregates(), hs.Aggregates(); !sameAggregateBits(ab, as) {
			t.Fatalf("aggregates: batch %+v, per-VM %+v", ab, as)
		}
		checkRows(t, hb, "batched write")
		checkAggregates(t, hb, "batched write")
	})
}

// TestLimitWritesRejectNaN: a NaN limit used to engage nothing and
// report success — the controller treated it as "leave as is" — so a
// target with a NaN component silently left that dimension undeflated.
// Every limit write, one domain or a batch, now refuses it before
// anything is written, like a negative component.
func TestLimitWritesRejectNaN(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name  string
		write func(h *Host, d, peer Domain) error
	}{
		{"SetLimits", func(_ *Host, d, _ Domain) error {
			_, err := d.SetLimits(resources.New(nan, 8192, 50, 500))
			return err
		}},
		{"SetLimits disk", func(_ *Host, d, _ Domain) error {
			_, err := d.SetLimits(resources.New(4, 8192, nan, 500))
			return err
		}},
		{"SetCPUShares", func(_ *Host, d, _ Domain) error { return d.SetCPUShares(nan) }},
		{"batch, NaN last", func(h *Host, d, peer Domain) error {
			return h.SetLimits([]Domain{peer, d}, []resources.Vector{resources.New(2, 4096, 50, 500), resources.New(4, nan, 50, 500)})
		}},
		{"ClampTarget", func(_ *Host, d, _ Domain) error {
			_, err := d.ClampTarget(resources.New(nan, 8192, 50, 500))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := testHost(t)
			d, peer := defineRunning(t, h, "vm", 8, 16384), defineRunning(t, h, "peer", 8, 16384)
			h.Aggregates()
			epoch, before, peerBefore := h.AllocEpoch(), limitStateOf(d), limitStateOf(peer)
			if err := tc.write(h, d, peer); !errors.Is(err, ErrInvalid) {
				t.Fatalf("err = %v, want ErrInvalid", err)
			}
			if limitStateOf(d) != before || limitStateOf(peer) != peerBefore || h.AllocEpoch() != epoch {
				t.Errorf("a refused NaN write moved state: %+v -> %+v, peer %+v -> %+v, epoch %d -> %d",
					before, limitStateOf(d), peerBefore, limitStateOf(peer), epoch, h.AllocEpoch())
			}
		})
	}
}

// BenchmarkLimitWriteBatchSteadyState is one policy pass's write on a
// populated host: twelve residents' targets, alternately deflating and
// reinflating every one of them, in one Host.SetLimits call. `make
// bench-allocs` requires 0 allocs/op; ns/op is the per-pass cost of the
// cluster's limit writes.
func BenchmarkLimitWriteBatchSteadyState(b *testing.B) {
	h := testHost(b)
	doms := make([]Domain, 12)
	for i := range doms {
		doms[i] = defineRunning(b, h, fmt.Sprintf("vm-%02d", i), 4, 8192)
	}
	lims := make([]resources.Vector, len(doms))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		frac := 0.5 + float64(n%2)/2
		for i, d := range doms {
			lims[i] = d.MaxSize().Scale(frac)
		}
		if err := h.SetLimits(doms, lims); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if h.AllocEpoch() != uint64(b.N) {
		b.Fatalf("%d batched writes moved the epoch to %d, want one bump each", b.N, h.AllocEpoch())
	}
}

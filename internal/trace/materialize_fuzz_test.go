package trace

import (
	"math"
	"testing"
)

// materializePerVM is the per-VM Materialize loop the block layout
// replaced, one Record (its former loop body) per VM: one record, one
// ID string and one series allocation each. It is kept as the oracle
// FuzzMaterialize holds the block layout to.
func materializePerVM(s *Stream) *AzureTrace {
	t := &AzureTrace{VMs: make([]*VMRecord, 0, s.n)}
	for i := 0; i < s.n; i++ {
		t.VMs = append(t.VMs, s.Record(i))
	}
	return t
}

// FuzzMaterialize holds Materialize's block layout to the per-VM
// oracle, record by record and bit for bit: ID, class, cores, memory,
// start, end and every utilisation sample. Every record's series must
// also be capped at its own length, so an append to it can never write
// into the next record's samples in the shared block. The inputs are a
// scenario (by index into Scenarios), a VM count folded to 0–3000, a
// seed and a duration folded into ±4 days; a non-finite duration is
// refused by NewStream and skipped. The seeds cover 0 and 1 VMs and one
// block either side of a block boundary.
//
//	go test -run '^$' -fuzz FuzzMaterialize -fuzztime 15s -fuzzminimizetime 200x ./internal/trace
func FuzzMaterialize(f *testing.F) {
	for kind, n := range []uint16{0, 1, materializeBlock - 1, materializeBlock, materializeBlock + 1} {
		f.Add(uint8(kind), n, int64(kind+1), 86400.0)
	}
	f.Add(uint8(2), uint16(3000), int64(7), 3*86400.0)
	f.Add(uint8(3), uint16(2*materializeBlock+1), int64(-3), 100.0)
	f.Fuzz(func(t *testing.T, kind uint8, n uint16, seed int64, duration float64) {
		const maxDuration = 4 * 86400
		if math.Abs(duration) > maxDuration {
			duration = math.Mod(duration, maxDuration)
		}
		kinds := Scenarios()
		s, err := NewStream(ScenarioConfig{
			Kind:     kinds[int(kind)%len(kinds)],
			NumVMs:   int(n) % 3001,
			Duration: duration,
			Seed:     seed,
		})
		if err != nil {
			return
		}
		got, want := s.Materialize(), materializePerVM(s)
		if len(got.VMs) != len(want.VMs) {
			t.Fatalf("%d records, oracle %d", len(got.VMs), len(want.VMs))
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		for i, g := range got.VMs {
			w := want.VMs[i]
			if g.ID != w.ID || g.Class != w.Class || g.Cores != w.Cores ||
				!same(g.MemoryMB, w.MemoryMB) || !same(g.Start, w.Start) || !same(g.End, w.End) {
				t.Fatalf("record %d: %s %v %d %v [%v, %v), oracle %s %v %d %v [%v, %v)", i,
					g.ID, g.Class, g.Cores, g.MemoryMB, g.Start, g.End,
					w.ID, w.Class, w.Cores, w.MemoryMB, w.Start, w.End)
			}
			if cap(g.CPUUtil) != len(g.CPUUtil) {
				t.Fatalf("record %d: series cap %d != len %d", i, cap(g.CPUUtil), len(g.CPUUtil))
			}
			if len(g.CPUUtil) != len(w.CPUUtil) {
				t.Fatalf("record %d: %d samples, oracle %d", i, len(g.CPUUtil), len(w.CPUUtil))
			}
			for j, v := range g.CPUUtil {
				if !same(v, w.CPUUtil[j]) {
					t.Fatalf("record %d sample %d: %v, oracle %v", i, j, v, w.CPUUtil[j])
				}
			}
		}
	})
}

package hypervisor

import (
	"fmt"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// freshView rebuilds the deflatable VM-state view from scratch through
// the public Domains() walk — the oracle the host's view must match
// bit-for-bit after any operation sequence.
func freshView(h *Host) ([]policy.VMState, []*Domain) {
	var states []policy.VMState
	var doms []*Domain
	for _, d := range h.Domains() { // Domains() is sorted by name
		if !d.Config().Deflatable || d.State() != Running {
			continue
		}
		states = append(states, policy.VMState{
			Name:     d.Name(),
			Max:      d.MaxSize(),
			Min:      DefaultFloor(),
			Priority: d.Config().Priority,
			Current:  d.Allocation(),
			Load:     d.Config().Load,
		})
		doms = append(doms, d)
	}
	return states, doms
}

// checkView holds a view read from h, gotStates and gotDoms, to a fresh
// walk.
func checkView(t *testing.T, h *Host, op string, gotStates []policy.VMState, gotDoms []*Domain) {
	t.Helper()
	wantStates, wantDoms := freshView(h)
	if len(gotStates) != len(wantStates) || len(gotDoms) != len(wantDoms) {
		t.Fatalf("after %s: view sizes diverged: got %d/%d domains, want %d/%d",
			op, len(gotStates), len(gotDoms), len(wantStates), len(wantDoms))
	}
	for i := range wantStates {
		if gotStates[i] != wantStates[i] {
			t.Fatalf("after %s: view[%d] diverged:\n got %+v\nwant %+v",
				op, i, gotStates[i], wantStates[i])
		}
		if gotDoms[i] != wantDoms[i] {
			t.Fatalf("after %s: domain pointer %d diverged", op, i)
		}
	}
}

// TestDeflatableViewMatchesFreshWalk is the view coherence property
// test: after every op of a hostMix stream, the host's VM-state
// view — read from its row table — must equal a fresh Domains() walk
// through the public accessors exactly, the invariant that lets the
// cluster's deflation and reinflation passes consume the view instead of
// rebuilding policy.VMState slices per pass. Offered loads are written
// throughout: they touch no row, so the view's Load column must come out
// right by read-through alone.
func TestDeflatableViewMatchesFreshWalk(t *testing.T) {
	runHostMix(t, 11)
}

// TestDeflatableViewAppendSemantics checks the append contract: the
// destination buffers are extended, not overwritten, and reusing a
// buffer across reads does not allocate once its capacity is warm.
func TestDeflatableViewAppendSemantics(t *testing.T) {
	h := testHost(t)
	defineRunning(t, h, "a", 4, 8192)
	d, err := h.Define(DomainConfig{
		Name: "b", Size: resources.New(4, 8192, 0, 0), Deflatable: true, Priority: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}

	sentinel := policy.VMState{Name: "sentinel"}
	states, doms := h.AppendDeflatableView([]policy.VMState{sentinel}, nil)
	if len(states) < 2 || states[0].Name != "sentinel" {
		t.Fatalf("append must extend the destination: %+v", states)
	}
	if len(doms) != len(states)-1 {
		t.Fatalf("domains not parallel to appended states: %d vs %d", len(doms), len(states)-1)
	}

	// Steady state: repeated reads into a reused buffer, with a limit
	// change in between, must not allocate.
	var sbuf []policy.VMState
	var dbuf []*Domain
	sbuf, dbuf = h.AppendDeflatableView(sbuf[:0], dbuf[:0])
	got := testing.AllocsPerRun(100, func() {
		d.SetCPUShares(2 + float64(len(sbuf)%2))
		sbuf, dbuf = h.AppendDeflatableView(sbuf[:0], dbuf[:0])
	})
	if got != 0 {
		t.Errorf("steady-state view read allocates %.1f allocs/op, want 0", got)
	}
}

// TestLoadWriteFiresNoAggregateChange is a named stream of
// runDomainOps: eight residents' offered loads rewritten every round
// while a limit write moves one of them. A load write must move no
// aggregate, and the very next view read must return it.
func TestLoadWriteFiresNoAggregateChange(t *testing.T) {
	runDomainOps(t, loadWrites(5, 60), 8)
}

// BenchmarkLoadWriteViewSteadyState is one server's share of an SLO
// sample followed by a policy pass: every resident's offered load is
// rewritten, then the deflatable view is read into reused buffers. With
// loads read through there is no rebuild walk in between, and
// `make bench-allocs` requires 0 allocs/op.
func BenchmarkLoadWriteViewSteadyState(b *testing.B) {
	h := testHost(b)
	doms := make([]*Domain, 8)
	for i := range doms {
		doms[i] = defineRunning(b, h, fmt.Sprintf("vm-%d", i), 4, 8192)
	}
	states, view := h.AppendDeflatableView(nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, d := range doms {
			d.SetOfferedLoad(float64(n%7) + float64(i)/8)
		}
		states, view = h.AppendDeflatableView(states[:0], view[:0])
	}
	if len(states) != len(doms) || states[0].Load != view[0].Config().Load {
		b.Fatalf("view lost the written loads: %d states, load %g", len(states), states[0].Load)
	}
}

package clustersim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"vmdeflate/internal/trace"
)

// TestAdaptersAgree is the row source's contract: the eager adapter over
// a stream's materialised form and the streamed adapter over the stream
// answer every accessor identically, row by row — utilisation through
// the cursor included — build the same geometry and plan the same
// pools. That is what lets the engine read either without asking which
// it holds; the engine-level streamed == eager suites check the
// consequence.
func TestAdaptersAgree(t *testing.T) {
	for _, kind := range trace.Scenarios() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", kind, seed), func(t *testing.T) {
				t.Parallel()
				s, err := trace.NewStream(trace.ScenarioConfig{Kind: kind, NumVMs: 300, Duration: 2 * 86400, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				tr := s.Materialize()
				eager, streamed := newRowSource(tr, nil), newRowSource(nil, s)
				for _, src := range []*rowSource{eager, streamed} {
					if err := src.open(); err != nil {
						t.Fatal(err)
					}
				}
				if eager.len() != streamed.len() || eager.len() != len(tr.VMs) {
					t.Fatalf("len: eager %d, streamed %d, trace %d", eager.len(), streamed.len(), len(tr.VMs))
				}
				for row := range eager.len() {
					checkRowsAgree(t, eager, streamed, row)
				}
				// The streamed adapter keeps its last row's parameters;
				// asking out of order must not read stale ones.
				for row := eager.len() - 1; row >= 0; row -= 7 {
					checkRowsAgree(t, eager, streamed, row)
				}

				ge, gs := eager.geometry(), streamed.geometry()
				if !slices.Equal(ge.byStart, gs.byStart) || !slices.Equal(ge.starts, gs.starts) ||
					!slices.Equal(ge.ends, gs.ends) || !slices.Equal(ge.cores, gs.cores) || !slices.Equal(ge.mem, gs.mem) ||
					ge.maxEnd != gs.maxEnd || ge.maxEnd != tr.Duration() {
					t.Fatalf("geometries differ (horizons %v and %v, trace %v)", ge.maxEnd, gs.maxEnd, tr.Duration())
				}
				checkGeometrySizes(t, ge, tr)
				cfg := &Config{Partitioned: true}
				for _, n := range []int{1, 7, 40} {
					pe, ps := poolPlan(cfg, eager, n), poolPlan(cfg, streamed, n)
					if !slices.Equal(pe, ps) {
						t.Fatalf("%d servers: eager plans %v, streamed %v", n, pe, ps)
					}
					if n == 40 && slices.Max(pe) == 0 {
						t.Fatalf("vacuous plan %v", pe)
					}
				}
				if ge.walks == 0 || gs.walks != ge.walks {
					t.Fatalf("walks: eager %d, streamed %d", ge.walks, gs.walks)
				}
			})
		}
	}
}

func checkRowsAgree(t *testing.T, eager, streamed *rowSource, row int) {
	t.Helper()
	s0, e0, c0, m0 := eager.span(row)
	s1, e1, c1, m1 := streamed.span(row)
	switch {
	case s0 != s1 || e0 != e1 || c0 != c1 || math.Float64bits(m0) != math.Float64bits(m1):
		t.Fatalf("row %d span: eager (%v, %v, %v, %v), streamed (%v, %v, %v, %v)", row, s0, e0, c0, m0, s1, e1, c1, m1)
	case eager.id(row) != streamed.id(row):
		t.Fatalf("row %d id: eager %s, streamed %s", row, eager.id(row), streamed.id(row))
	case eager.class(row) != streamed.class(row):
		t.Fatalf("row %d class: eager %v, streamed %v", row, eager.class(row), streamed.class(row))
	}
	p0, l0 := eager.util(row)
	p1, l1 := streamed.util(row)
	if math.Float64bits(p0) != math.Float64bits(p1) || math.Float64bits(l0) != math.Float64bits(l1) {
		t.Fatalf("row %d util: eager (p95 %v, at start %v), streamed (%v, %v)", row, p0, l0, p1, l1)
	}
	re, rs := eager.vm(row, eager.id(row)), streamed.vm(row, streamed.id(row))
	if re.ID != rs.ID || re.Class != rs.Class || re.Cores != rs.Cores || re.MemoryMB != rs.MemoryMB ||
		re.Start != rs.Start || re.End != rs.End || rs.CPUUtil != nil {
		t.Fatalf("row %d record: eager %+v, streamed %+v", row, re, rs)
	}
	if want := eager.rowAdapter.(*eagerRows).tr.VMs[row]; !reflect.DeepEqual(re, *want) {
		t.Fatalf("row %d: the eager source reads %+v, the trace holds %+v", row, re, *want)
	}
	if c0 != float64(re.Cores) || m0 != re.MemoryMB {
		t.Fatalf("row %d span: cores %v and memory %v, record %d and %v", row, c0, m0, re.Cores, re.MemoryMB)
	}
	if eager.cursor(row) != nil {
		t.Fatalf("row %d: the eager adapter bound a cursor", row)
	}
	cur := streamed.cursor(row)
	defer streamed.release(cur)
	for ts := re.Start; ts < re.End+trace.SampleInterval; ts += trace.SampleInterval / 2 {
		if a, b := re.UtilAt(ts), cur.At(ts); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("row %d utilisation at %v: series %v, cursor %v", row, ts, a, b)
		}
	}
}

// checkGeometrySizes holds the geometry's size columns to vmSize of each
// row's record, bit for bit: the sizing walks read the columns, the
// candidate search the records.
func checkGeometrySizes(t *testing.T, g *geometry, tr *trace.AzureTrace) {
	t.Helper()
	for row, vm := range tr.VMs {
		got, want := g.size(int32(row)), vmSize(vm)
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("row %d: geometry size %v, vmSize %v", row, got, want)
			}
		}
	}
}

// TestGeometrySizeIsVMSize: the size columns hold what vmSize reads,
// also for a core count past MaxInt32, which a 32-bit column wrapped, and
// for fractional and signed-zero memory.
func TestGeometrySizeIsVMSize(t *testing.T) {
	tr := fractionalTrace(3, 200)
	tr.VMs[7].Cores = math.MaxInt32 + 5
	tr.VMs[8].Cores = 1 << 40
	tr.VMs[9].MemoryMB = math.Copysign(0, -1)
	checkGeometrySizes(t, newRowSource(tr, nil).geometry(), tr)
}

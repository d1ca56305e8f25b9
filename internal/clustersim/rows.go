package clustersim

import (
	"fmt"
	"slices"

	"vmdeflate/internal/resources"
	"vmdeflate/internal/stats"
	"vmdeflate/internal/trace"
)

// A run reads its trace through one row source: what it needs to know
// about each VM, addressed by trace row. An eager trace and a
// trace.Stream are its two adapters. Fleet sizing, the pool planner, the
// arrival queue and admission read the source and never ask which
// adapter they hold.

// rowAdapter answers, by trace row, everything a run reads about a VM.
type rowAdapter interface {
	len() int
	// span returns the geometry columns: start, end, cores and memory.
	span(row int) (start, end, cores, memMB float64)
	id(row int) string // for error text
	class(row int) trace.VMClass
	// util returns the 95th-percentile utilisation, which a priority is
	// quantised from, and the utilisation at the VM's start, which is
	// its offered load at admission.
	util(row int) (p95, atStart float64)
	// series returns the row's materialised utilisation series, or nil
	// when a cursor reads it instead.
	series(row int) []float64
	// cursor binds a utilisation cursor for the VM's lifetime, or returns
	// nil when the row has a materialised series; release takes a bound
	// cursor back once its VM closes.
	cursor(row int) *trace.UtilCursor
	release(*trace.UtilCursor)
	// open readies what a run reads beyond sizing. Sizing never calls it.
	open() error
}

// rowSource is a run's trace: one adapter, plus the geometry built from
// it on first need.
type rowSource struct {
	rowAdapter
	geo *geometry
}

// newRowSource is the adapter choice, the one place a run asks whether
// its trace is eager or streamed.
func newRowSource(tr *trace.AzureTrace, s *trace.Stream) *rowSource {
	if s != nil {
		return &rowSource{rowAdapter: newStreamRows(s)}
	}
	return &rowSource{rowAdapter: &eagerRows{tr: tr}}
}

// vm reads row's record by value, the copy a VM's table row holds, with
// id as its ID. A stream allocates a new string per id call, so a run
// reads a VM's id once, at its arrival, and passes that name on.
func (s *rowSource) vm(row int, id string) trace.VMRecord {
	start, end, cores, mem := s.span(row)
	return trace.VMRecord{
		ID:       id,
		Class:    s.class(row),
		Cores:    int(cores),
		MemoryMB: mem,
		Start:    start,
		End:      end,
		CPUUtil:  s.series(row),
	}
}

// end is row's departure time.
func (s *rowSource) end(row int) float64 {
	_, end, _, _ := s.span(row)
	return end
}

// geometry returns the source's geometry, building it on first need.
func (s *rowSource) geometry() *geometry {
	if s.geo == nil {
		s.geo = newGeometry(s.rowAdapter)
	}
	return s.geo
}

// eagerRows adapts a materialised trace: every answer is a read of the
// record, and P95 is the trace's shared column.
type eagerRows struct {
	tr     *trace.AzureTrace
	p95col []float64 // fetched by open
}

// open fetches the trace's P95 column. The column is derived once per
// trace and shared read-only by every engine over it, so a trace whose
// VM list changed after an earlier run no longer lines up with it; that
// is reported here rather than as an index panic mid-run.
func (a *eagerRows) open() error {
	a.p95col = a.tr.P95Column()
	if len(a.p95col) != len(a.tr.VMs) {
		return fmt.Errorf("clustersim: trace has %d VMs but its P95 column was derived for %d: a trace is immutable once a run has read it", len(a.tr.VMs), len(a.p95col))
	}
	return nil
}

func (a *eagerRows) span(row int) (float64, float64, float64, float64) {
	vm := a.tr.VMs[row]
	return vm.Start, vm.End, float64(vm.Cores), vm.MemoryMB
}

func (a *eagerRows) util(row int) (float64, float64) {
	vm := a.tr.VMs[row]
	return a.p95col[row], vm.UtilAt(vm.Start)
}

func (a *eagerRows) len() int                    { return len(a.tr.VMs) }
func (a *eagerRows) id(row int) string           { return a.tr.VMs[row].ID }
func (a *eagerRows) class(row int) trace.VMClass { return a.tr.VMs[row].Class }
func (a *eagerRows) series(row int) []float64    { return a.tr.VMs[row].CPUUtil }
func (*eagerRows) cursor(int) *trace.UtilCursor  { return nil }
func (*eagerRows) release(*trace.UtilCursor)     {}

// streamRows adapts a trace.Stream: every answer is regenerated from the
// row's parameters, so nothing per VM outlives the question. It belongs
// to one engine. A run asks about one row several times in a row (its
// start when the arrival queue resolves it, its end when the batcher
// pops it, its record, utilisation and cursor at admission; class then
// utilisation in the pool planner), and the queue resolves the next
// arrival in between, so the adapter keeps the last two rows'
// parameters. It recycles utilisation cursors, with their embedded RNG
// state, across VM lifetimes.
type streamRows struct {
	s     *trace.Stream
	pRow  [2]int // the rows p holds, or -1
	p     [2]trace.VMParams
	last  int // the p slot read last
	synth *trace.SeriesSynth
	buf   []float64
	idle  []*trace.UtilCursor // released cursors, for the next bind
}

func newStreamRows(s *trace.Stream) *streamRows {
	return &streamRows{s: s, pRow: [2]int{-1, -1}, synth: trace.NewSeriesSynth()}
}

// params returns row's parameters, regenerated into the slot read less
// recently unless either slot holds them.
func (a *streamRows) params(row int) *trace.VMParams {
	i := a.last
	if a.pRow[i] != row {
		i ^= 1
		if a.pRow[i] != row {
			a.p[i], a.pRow[i] = a.s.Params(row), row
		}
		a.last = i
	}
	return &a.p[i]
}

func (a *streamRows) span(row int) (float64, float64, float64, float64) {
	p := a.params(row)
	return p.Start, p.End, float64(p.Cores), p.MemoryMB
}

// util synthesizes the series once into the reused buffer, reads its
// first sample and selects the P95 in place (the selection the eager
// column makes over the same samples, so the two agree bit for bit).
func (a *streamRows) util(row int) (float64, float64) {
	a.buf = a.synth.Append(*a.params(row), a.buf[:0])
	atStart := a.buf[0]
	return stats.PercentileSelect(a.buf, 95), atStart
}

func (a *streamRows) cursor(row int) *trace.UtilCursor {
	var c *trace.UtilCursor
	if n := len(a.idle); n > 0 {
		c, a.idle = a.idle[n-1], a.idle[:n-1]
	} else {
		c = trace.NewUtilCursor()
	}
	c.Reset(*a.params(row))
	return c
}

func (a *streamRows) len() int                    { return a.s.Len() }
func (a *streamRows) id(row int) string           { return a.params(row).ID() }
func (a *streamRows) class(row int) trace.VMClass { return a.params(row).Class }
func (*streamRows) series(int) []float64          { return nil }
func (a *streamRows) release(c *trace.UtilCursor) { a.idle = append(a.idle, c) }
func (*streamRows) open() error                   { return nil }

// geometry is a trace's arrival and departure order as six columns:
// rows sorted by start and by end, the start and end columns they sort
// on, and each row's cores and memory, so the walks over it read a VM's
// size without going back to the adapter. It is built on first need, by
// fleet sizing or else at run setup, and released once the arrival queue
// has taken byStart, so through the run it costs the queue's arrival
// column and nothing else.
type geometry struct {
	byStart []int32 // rows by (start, row): the arrival order
	byEnd   []int32 // rows by (end, row), sorted by the first walk
	starts  []float64
	ends    []float64
	cores   []float64 // whole, as vmSize reads them
	mem     []float64
	maxEnd  float64 // the horizon
	walks   int     // merge walks made, a work count the sizing test pins
}

// newGeometry reads the span columns in one pass over the rows and sorts
// the arrival order.
func newGeometry(a rowAdapter) *geometry {
	n := a.len()
	g := &geometry{
		byStart: make([]int32, n),
		starts:  make([]float64, n),
		ends:    make([]float64, n),
		cores:   make([]float64, n),
		mem:     make([]float64, n),
	}
	for row := range n {
		g.starts[row], g.ends[row], g.cores[row], g.mem[row] = a.span(row)
		g.byStart[row] = int32(row)
		if g.ends[row] > g.maxEnd {
			g.maxEnd = g.ends[row]
		}
	}
	sortRows(g.byStart, g.starts)
	return g
}

// size is the row's committed size, bit for bit vmSize of its record.
func (g *geometry) size(row int32) resources.Vector {
	return resources.CPUMem(g.cores[row], g.mem[row])
}

// sortRows sorts rows by (key, row). That is a strict total order, so
// the unstable sort is deterministic.
func sortRows(rows []int32, key []float64) {
	slices.SortFunc(rows, func(a, b int32) int {
		switch ka, kb := key[a], key[b]; {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return int(a) - int(b)
	})
}

// walk visits every arrival and departure in (time, departures first,
// row) order by merging the two sorted columns, without materialising
// the 2N events. Sizing and the pool planner replay this one walk, which
// keeps their float accumulations identical for both adapters. fn
// returns false to stop.
func (g *geometry) walk(fn func(row int32, arrival bool) bool) {
	g.walks++
	if g.byEnd == nil {
		g.byEnd = slices.Clone(g.byStart)
		sortRows(g.byEnd, g.ends)
	}
	for i, j := 0, 0; i < len(g.byStart) || j < len(g.byEnd); {
		// A departure goes first on a time tie: it frees capacity for the
		// arrivals at its instant.
		if i == len(g.byStart) || j < len(g.byEnd) && !(g.ends[g.byEnd[j]] > g.starts[g.byStart[i]]) {
			if !fn(g.byEnd[j], false) {
				return
			}
			j++
		} else {
			if !fn(g.byStart[i], true) {
				return
			}
			i++
		}
	}
}

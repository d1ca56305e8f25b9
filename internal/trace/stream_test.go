package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

func testStreams(t *testing.T, n int) map[string]*Stream {
	t.Helper()
	out := make(map[string]*Stream)
	for _, sc := range Scenarios() {
		cfg := DefaultScenarioConfig(sc)
		cfg.NumVMs = n
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatalf("NewStream(%s): %v", sc, err)
		}
		out[string(sc)] = s
	}
	return out
}

// TestMaterializeMatchesEagerGenerators pins the tentpole identity: the
// eager generators delegate to Stream.Materialize, so reading VMs
// through the stream and through the eager API must agree bit for bit —
// metadata and every utilisation sample.
func TestMaterializeMatchesEagerGenerators(t *testing.T) {
	for _, sc := range Scenarios() {
		cfg := DefaultScenarioConfig(sc)
		cfg.NumVMs = 300
		eager, err := GenerateScenario(cfg)
		if err != nil {
			t.Fatalf("GenerateScenario(%s): %v", sc, err)
		}
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatalf("NewStream(%s): %v", sc, err)
		}
		if s.Len() != len(eager.VMs) {
			t.Fatalf("%s: stream Len %d != eager %d", sc, s.Len(), len(eager.VMs))
		}
		for i, want := range eager.VMs {
			got := s.Record(i)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: VM %d differs:\nstream %+v\neager  %+v", sc, i, got, want)
			}
		}
	}
}

// TestParamsPureAndRandomAccess: Params is a pure function of (config,
// index) — repeated and out-of-order reads return identical records.
func TestParamsPureAndRandomAccess(t *testing.T) {
	for name, s := range testStreams(t, 500) {
		// Forward pass.
		fwd := make([]VMParams, s.Len())
		for i := range fwd {
			fwd[i] = s.Params(i)
		}
		// Random-order re-read, interleaved with repeats.
		rng := rand.New(rand.NewSource(7))
		for k := 0; k < 2000; k++ {
			i := rng.Intn(s.Len())
			if got := s.Params(i); got != fwd[i] {
				t.Fatalf("%s: Params(%d) changed on re-read:\n%+v\n%+v", name, i, got, fwd[i])
			}
		}
	}
}

// TestUtilCursorMatchesSeries: a cursor reads, forward or backward, the
// exact sample bits of the materialised series, and UtilAt's semantics
// (zero outside [start, end), index clamp at the tail) carry over.
func TestUtilCursorMatchesSeries(t *testing.T) {
	for name, s := range testStreams(t, 50) {
		cur := NewUtilCursor()
		for i := 0; i < s.Len(); i++ {
			p := s.Params(i)
			rec := s.Record(i)
			cur.Reset(p)
			// Forward sweep over the lifetime, extending past End and
			// before Start to pin the outside-window zeros, plus the exact
			// UtilAt comparison at every probe.
			for ts := p.Start - SampleInterval; ts < p.End+2*SampleInterval; ts += SampleInterval / 2 {
				if got, want := cur.At(ts), rec.UtilAt(ts); got != want {
					t.Fatalf("%s vm %d: cursor At(%g) = %v, want %v", name, i, ts, got, want)
				}
			}
			// Backward reads replay from the seed; same bits required.
			for ts := p.End - SampleInterval; ts >= p.Start; ts -= SampleInterval {
				if got, want := cur.At(ts), rec.UtilAt(ts); got != want {
					t.Fatalf("%s vm %d: backward At(%g) = %v, want %v", name, i, ts, got, want)
				}
			}
		}
	}
}

// TestSeriesSynthReuse: one synthesizer reused across VMs produces the
// same series as a fresh one per VM (the engine reuses a single synth
// for every admission-time P95).
func TestSeriesSynthReuse(t *testing.T) {
	s := testStreams(t, 100)["heavytail"]
	shared := NewSeriesSynth()
	var buf []float64
	for i := 0; i < s.Len(); i++ {
		p := s.Params(i)
		buf = shared.Append(p, buf[:0])
		fresh := NewSeriesSynth().Append(p, nil)
		if !reflect.DeepEqual(buf, fresh) {
			t.Fatalf("vm %d: reused synth diverges from fresh", i)
		}
	}
}

// TestDurationMemoised: the cached Duration matches a direct max scan
// and survives repeated calls.
func TestDurationMemoised(t *testing.T) {
	tr := testStreams(t, 300)["diurnal"].Materialize()
	var want float64
	for _, vm := range tr.VMs {
		want = math.Max(want, vm.End)
	}
	if got := tr.Duration(); got != want {
		t.Fatalf("Duration = %v, want %v", got, want)
	}
	if got := tr.Duration(); got != want {
		t.Fatalf("second Duration = %v, want %v", got, want)
	}
}

// checkP95Column holds the column to VMRecord.P95 bit for bit (NaN on
// both sides for an empty series).
func checkP95Column(t *testing.T, name string, tr *AzureTrace) {
	t.Helper()
	col := tr.P95Column()
	if len(col) != len(tr.VMs) {
		t.Fatalf("%s: column has %d rows, trace %d", name, len(col), len(tr.VMs))
	}
	for i, vm := range tr.VMs {
		if want := vm.P95(); math.Float64bits(col[i]) != math.Float64bits(want) {
			t.Errorf("%s: row %d = %v, VMRecord.P95 = %v", name, i, col[i], want)
		}
	}
}

// TestP95ColumnMatchesRecordP95: the derived column is VMRecord.P95 row
// by row on every generator, on a trace read back from CSV, and on the
// degenerate series (one sample, none).
func TestP95ColumnMatchesRecordP95(t *testing.T) {
	for name, s := range testStreams(t, 300) {
		checkP95Column(t, name, s.Materialize())
	}

	var buf bytes.Buffer
	if err := WriteAzureCSV(&buf, testStreams(t, 40)["azure"].Materialize()); err != nil {
		t.Fatal(err)
	}
	csv, err := ReadAzureCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkP95Column(t, "csv", csv)

	edge := &AzureTrace{VMs: []*VMRecord{
		{ID: "one", Cores: 1, End: 300, CPUUtil: []float64{42.5}},
		{ID: "none", Cores: 1},
		{ID: "unsorted", Cores: 1, End: 900, CPUUtil: []float64{90, 10, 50}},
	}}
	checkP95Column(t, "edge", edge)
	if col := edge.P95Column(); col[0] != 42.5 || !math.IsNaN(col[1]) {
		t.Errorf("edge column = %v, want [42.5 NaN ...]", col)
	}
	if got := edge.VMs[2].CPUUtil; !reflect.DeepEqual(got, []float64{90, 10, 50}) {
		t.Errorf("building the column reordered a record's series: %v", got)
	}
	checkP95Column(t, "empty", &AzureTrace{})
}

// TestP95ColumnBuiltOnce pins the work count: each record's series is
// sorted exactly once per trace however many goroutines read the column
// and however often, and every read returns the same backing array.
// Run under -race by `make race-placement`.
func TestP95ColumnBuiltOnce(t *testing.T) {
	tr := testStreams(t, 300)["bursty"].Materialize()
	cols := make([][]float64, 8)
	var wg sync.WaitGroup
	for g := range cols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				cols[g] = tr.P95Column()
			}
		}()
	}
	wg.Wait()
	if tr.p95Sorts != len(tr.VMs) {
		t.Errorf("%d series sorts for %d VMs, want one each", tr.p95Sorts, len(tr.VMs))
	}
	for g, col := range cols {
		if &col[0] != &cols[0][0] {
			t.Errorf("goroutine %d read a different backing array", g)
		}
	}
}

var sinkID string

// TestVMParamsID: the identifier is "vm-" and the index zero-padded to
// six digits, and formatting it allocates the string alone — the one
// allocation the streamed intake pays per arrival for it.
func TestVMParamsID(t *testing.T) {
	for _, i := range []int{0, 7, 10, 99999, 123456, 999999, 1000000, 123456789} {
		p := VMParams{Index: i}
		if got, want := p.ID(), fmt.Sprintf("vm-%06d", i); got != want {
			t.Errorf("ID(%d) = %q, want %q", i, got, want)
		}
		if got, want := idLen(i), len(p.ID()); got != want {
			t.Errorf("idLen(%d) = %d, want %d", i, got, want)
		}
		if got := testing.AllocsPerRun(100, func() { sinkID = p.ID() }); got != 1 {
			t.Errorf("ID(%d) allocates %v objects, want 1", i, got)
		}
	}
}

// TestMaterializeAllocsPerBlock pins Materialize's allocation count:
// three per block (records, series, IDs) plus a constant for the trace,
// its record-pointer slice, the synthesizer and the per-block scratch —
// none per VM.
func TestMaterializeAllocsPerBlock(t *testing.T) {
	const constant = 6
	// The first collection starts the runtime's mark workers, which
	// allocate; run it outside the measurement.
	runtime.GC()
	for _, n := range []int{1, materializeBlock, 3*materializeBlock + 5} {
		s, err := NewStream(ScenarioConfig{Kind: ScenarioAzure, NumVMs: n, Duration: 86400, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		blocks := (n + materializeBlock - 1) / materializeBlock
		got := testing.AllocsPerRun(2, func() { s.Materialize() })
		if want := float64(3*blocks + constant); got != want {
			t.Errorf("%d VMs: Materialize allocates %v objects, want %v (3 per block x %d + %d)", n, got, want, blocks, constant)
		}
	}
}

var sinkParams VMParams

// BenchmarkStreamParams is the per-arrival parameter draw of the
// streamed intake. Gated at 0 allocs/op by `make bench-allocs`: the
// draws run on a stack-held source.
func BenchmarkStreamParams(b *testing.B) {
	s, err := NewStream(DefaultScenarioConfig(ScenarioHeavyTail))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkParams = s.Params(i % s.Len())
	}
}

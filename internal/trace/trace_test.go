package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"vmdeflate/internal/stats"
)

func TestVMClassRoundTrip(t *testing.T) {
	for _, c := range []VMClass{Interactive, DelayInsensitive, Unknown} {
		got, err := ParseVMClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseVMClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseVMClass("bogus"); err == nil {
		t.Error("bogus class should fail")
	}
	if !strings.Contains(VMClass(9).String(), "9") {
		t.Error("unknown class String should include value")
	}
}

func TestVMRecordBasics(t *testing.T) {
	vm := &VMRecord{
		ID: "vm-1", Class: Interactive, Cores: 4, MemoryMB: 8192,
		Start: 600, End: 600 + 4*SampleInterval,
		CPUUtil: []float64{10, 20, 30, 40},
	}
	if got := vm.UtilAt(600); got != 10 {
		t.Errorf("UtilAt(start) = %v", got)
	}
	if got := vm.UtilAt(600 + 3.5*SampleInterval); got != 40 {
		t.Errorf("UtilAt(last) = %v", got)
	}
	if got := vm.UtilAt(0); got != 0 {
		t.Errorf("UtilAt(before start) = %v", got)
	}
	if got := vm.UtilAt(vm.End); got != 0 {
		t.Errorf("UtilAt(end) = %v", got)
	}
}

func TestFractionAboveDeflation(t *testing.T) {
	vm := &VMRecord{CPUUtil: []float64{10, 40, 60, 90}}
	// 50% deflation -> threshold 50 -> 60 and 90 are above -> 0.5.
	if got := vm.FractionAboveDeflation(50); got != 0.5 {
		t.Errorf("FractionAboveDeflation(50) = %v", got)
	}
	// 0% deflation -> threshold 100 -> nothing above.
	if got := vm.FractionAboveDeflation(0); got != 0 {
		t.Errorf("FractionAboveDeflation(0) = %v", got)
	}
}

func TestSizeClassification(t *testing.T) {
	cases := []struct {
		memMB float64
		want  SizeClass
	}{
		{1024, SmallVM}, {2048, SmallVM}, {2049, MediumVM},
		{8192, MediumVM}, {8193, LargeVM}, {65536, LargeVM},
	}
	for _, c := range cases {
		vm := &VMRecord{MemoryMB: c.memMB}
		if got := vm.Size(); got != c.want {
			t.Errorf("Size(%v MB) = %v, want %v", c.memMB, got, c.want)
		}
	}
	for _, s := range []SizeClass{SmallVM, MediumVM, LargeVM} {
		if s.String() == "" || strings.HasPrefix(s.String(), "SizeClass") {
			t.Errorf("SizeClass %d has bad name %q", s, s.String())
		}
	}
}

func TestPeakClassification(t *testing.T) {
	cases := []struct {
		p95  float64
		want PeakClass
	}{
		{10, PeakLow}, {32.9, PeakLow}, {33, PeakModerate},
		{65.9, PeakModerate}, {66, PeakHigher}, {79.9, PeakHigher},
		{80, PeakHigh}, {100, PeakHigh},
	}
	for _, c := range cases {
		if got := Peak(c.p95); got != c.want {
			t.Errorf("Peak(%v) = %v, want %v", c.p95, got, c.want)
		}
	}
}

func TestGenerateAzureShape(t *testing.T) {
	tr := generateAzure(t, 400, 1)
	if len(tr.VMs) != 400 {
		t.Fatalf("generated %d VMs", len(tr.VMs))
	}
	for _, vm := range tr.VMs {
		if vm.Start < 0 || vm.End > 3*86400+SampleInterval {
			t.Fatalf("VM %s lifetime [%v,%v] outside horizon", vm.ID, vm.Start, vm.End)
		}
		if vm.Cores < 1 || vm.MemoryMB <= 0 {
			t.Fatalf("VM %s bad size", vm.ID)
		}
		wantSamples := int(math.Ceil((vm.End - vm.Start) / SampleInterval))
		if len(vm.CPUUtil) != wantSamples {
			t.Fatalf("VM %s has %d samples, want %d", vm.ID, len(vm.CPUUtil), wantSamples)
		}
		for _, u := range vm.CPUUtil {
			if u < 0 || u > 100 {
				t.Fatalf("VM %s util %v out of range", vm.ID, u)
			}
		}
	}
}

func TestGenerateAzureDeterministic(t *testing.T) {
	a, b := generateAzure(t, 50, 1), generateAzure(t, 50, 1)
	for i := range a.VMs {
		if a.VMs[i].ID != b.VMs[i].ID || stats.Mean(a.VMs[i].CPUUtil) != stats.Mean(b.VMs[i].CPUUtil) {
			t.Fatal("generation is not deterministic")
		}
	}
	c := generateAzure(t, 50, 2)
	same := true
	for i := range a.VMs {
		if stats.Mean(a.VMs[i].CPUUtil) != stats.Mean(c.VMs[i].CPUUtil) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different traces")
	}
}

// The class-level separation that drives Figure 6: interactive VMs must
// have materially more slack (lower fraction-above) than delay-insensitive
// VMs, and the absolute levels must be in the paper's reported bands
// (interactive ~1-15%, batch up to ~30% over 10-50% deflation).
func TestGenerateAzureClassSeparation(t *testing.T) {
	tr := generateAzure(t, 1500, 1)
	byClass := tr.ByClass()
	meanAbove := func(vms []*VMRecord, defl float64) float64 {
		var xs []float64
		for _, vm := range vms {
			xs = append(xs, vm.FractionAboveDeflation(defl))
		}
		return stats.Mean(xs)
	}
	i50 := meanAbove(byClass[Interactive], 50)
	b50 := meanAbove(byClass[DelayInsensitive], 50)
	i10 := meanAbove(byClass[Interactive], 10)
	if i50 >= b50 {
		t.Errorf("interactive impact (%.3f) should be below batch (%.3f) at 50%% deflation", i50, b50)
	}
	if i50 < 0.03 || i50 > 0.25 {
		t.Errorf("interactive fraction-above at 50%% deflation = %.3f, want ~0.15 (band 0.03-0.25)", i50)
	}
	if b50 < 0.15 || b50 > 0.45 {
		t.Errorf("batch fraction-above at 50%% deflation = %.3f, want ~0.30 (band 0.15-0.45)", b50)
	}
	if i10 > 0.05 {
		t.Errorf("interactive fraction-above at 10%% deflation = %.3f, want ~0.01", i10)
	}
}

// Figure 5's headline: even at 50% deflation the median VM spends ~80%
// of its time below the deflated allocation.
func TestGenerateAzureMedianSlack(t *testing.T) {
	tr := generateAzure(t, 1500, 1)
	var xs []float64
	for _, vm := range tr.VMs {
		xs = append(xs, vm.FractionAboveDeflation(50))
	}
	med := stats.Percentile(xs, 50)
	if med > 0.30 {
		t.Errorf("median fraction-above at 50%% deflation = %.3f, want <= 0.30 (paper ~0.20)", med)
	}
}

func TestGenerateAzurePartitions(t *testing.T) {
	tr := generateAzure(t, 800, 1)
	bySize := tr.BySize()
	if len(bySize[SmallVM]) == 0 || len(bySize[MediumVM]) == 0 || len(bySize[LargeVM]) == 0 {
		t.Errorf("size buckets should all be populated: %d/%d/%d",
			len(bySize[SmallVM]), len(bySize[MediumVM]), len(bySize[LargeVM]))
	}
	byPeak := tr.ByPeak()
	if len(byPeak[PeakLow]) == 0 || len(byPeak[PeakHigh]) == 0 {
		t.Errorf("peak buckets should include low and high: low=%d high=%d",
			len(byPeak[PeakLow]), len(byPeak[PeakHigh]))
	}
	total := 0
	for _, vms := range tr.ByClass() {
		total += len(vms)
	}
	if total != 800 {
		t.Errorf("class partition loses VMs: %d", total)
	}
	if tr.Duration() <= 0 || tr.Duration() > 3*86400+SampleInterval {
		t.Errorf("Duration = %v", tr.Duration())
	}
}

func TestGenerateAzureEmpty(t *testing.T) {
	tr := generateAzure(t, 0, 1)
	if len(tr.VMs) != 0 {
		t.Error("zero VMs should generate an empty trace")
	}
}

func TestGenerateAlibabaShape(t *testing.T) {
	cfg := DefaultAlibabaConfig()
	cfg.NumContainers = 300
	tr := GenerateAlibaba(cfg)
	if len(tr.Containers) != 300 {
		t.Fatalf("generated %d containers", len(tr.Containers))
	}
	for _, c := range tr.Containers {
		for _, series := range [][]float64{c.CPUUtil, c.MemUtil, c.MemBWUtil, c.DiskUtil, c.NetUtil} {
			if len(series) != cfg.Samples {
				t.Fatalf("container %s series has %d samples", c.ID, len(series))
			}
			for _, u := range series {
				if u < 0 || u > 100 {
					t.Fatalf("container %s util %v out of range", c.ID, u)
				}
			}
		}
	}
}

// Section 3.2.2's characteristics: memory occupancy high, memory
// bandwidth tiny, disk/net low.
func TestGenerateAlibabaCharacteristics(t *testing.T) {
	cfg := DefaultAlibabaConfig()
	cfg.NumContainers = 500
	tr := GenerateAlibaba(cfg)

	var memAbove90, membwMeans, diskAbove50, netAbove30 []float64
	for _, c := range tr.Containers {
		memAbove90 = append(memAbove90, stats.FractionAbove(c.MemUtil, 90))
		membwMeans = append(membwMeans, stats.Mean(c.MemBWUtil))
		diskAbove50 = append(diskAbove50, stats.FractionAbove(c.DiskUtil, 50))
		netAbove30 = append(netAbove30, stats.FractionAbove(c.NetUtil, 30))
	}
	// Figure 9: at 10% memory deflation most containers look badly
	// under-allocated (paper: >70% of time) — mean fraction above 90%
	// occupancy should be high.
	if m := stats.Mean(memAbove90); m < 0.5 {
		t.Errorf("mean fraction of time memory occupancy >90%% = %.3f, want high (>0.5, paper ~0.7)", m)
	}
	// Figure 10: mean memory-bandwidth utilisation < 0.2%, max <= 1%.
	if m := stats.Mean(membwMeans); m > 0.2 {
		t.Errorf("mean memory bandwidth util = %.4f%%, want < 0.2%%", m)
	}
	// Figure 11: at 50% disk deflation under-allocated <1% of time.
	if m := stats.Mean(diskAbove50); m > 0.02 {
		t.Errorf("disk fraction-above at 50%% deflation = %.4f, want < 0.02", m)
	}
	// Figure 12: at 70% net deflation under-allocation ~1% of lifetime.
	if m := stats.Mean(netAbove30); m > 0.03 {
		t.Errorf("net fraction-above at 70%% deflation = %.4f, want <= 0.03", m)
	}
}

func TestAzureCSVRoundTrip(t *testing.T) {
	orig := generateAzure(t, 25, 1)
	var buf bytes.Buffer
	if err := WriteAzureCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAzureCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.VMs) != len(orig.VMs) {
		t.Fatalf("round trip lost VMs: %d vs %d", len(got.VMs), len(orig.VMs))
	}
	for i, vm := range orig.VMs {
		g := got.VMs[i]
		if g.ID != vm.ID || g.Class != vm.Class || g.Cores != vm.Cores ||
			g.MemoryMB != vm.MemoryMB || g.Start != vm.Start || g.End != vm.End {
			t.Fatalf("metadata mismatch at %d: %+v vs %+v", i, g, vm)
		}
		if len(g.CPUUtil) != len(vm.CPUUtil) {
			t.Fatalf("series length mismatch at %d", i)
		}
		for j := range g.CPUUtil {
			if math.Abs(g.CPUUtil[j]-vm.CPUUtil[j]) > 1e-4 {
				t.Fatalf("sample mismatch at vm %d sample %d: %v vs %v", i, j, g.CPUUtil[j], vm.CPUUtil[j])
			}
		}
	}
}

func TestAlibabaCSVRoundTrip(t *testing.T) {
	cfg := DefaultAlibabaConfig()
	cfg.NumContainers = 10
	cfg.Samples = 30
	orig := GenerateAlibaba(cfg)
	var buf bytes.Buffer
	if err := WriteAlibabaCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAlibabaCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Containers) != len(orig.Containers) {
		t.Fatalf("round trip lost containers")
	}
	for i := range orig.Containers {
		o, g := orig.Containers[i], got.Containers[i]
		if g.ID != o.ID {
			t.Fatalf("ID mismatch at %d", i)
		}
		if math.Abs(stats.Mean(g.MemUtil)-stats.Mean(o.MemUtil)) > 1e-3 {
			t.Fatalf("memory series corrupted at %d", i)
		}
	}
}

// azureCSVMalformed are files ReadAzureCSV cannot parse at all.
var azureCSVMalformed = []string{
	"",
	"bad,header\n",
	"id,class,cores,memory_mb,start,end,cpu_util\nvm-1,badclass,1,1024,0,300,10\n",
	"id,class,cores,memory_mb,start,end,cpu_util\nvm-1,interactive,notanint,1024,0,300,10\n",
	"id,class,cores,memory_mb,start,end,cpu_util\nvm-1,interactive,1,1024,0,300,10;x\n",
}

func TestReadAzureCSVErrors(t *testing.T) {
	for i, in := range azureCSVMalformed {
		if _, err := ReadAzureCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestReadAlibabaCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"bad\n",
		"id,cpu,mem,membw,disk,net\nc-1,1;2,3,x,5,6\n",
	}
	for i, in := range cases {
		if _, err := ReadAlibabaCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// alibabaGoodHead is a header and one good container (line 2); each
// alibabaBadRows entry appended to it is line 3 and holds one sample
// that is not a finite non-negative number.
const alibabaGoodHead = "id,cpu,mem,membw,disk,net\nok,10,90,0.1,4,5\n"

var alibabaBadRows = []struct{ name, row, want string }{
	{"NaN mem", "c,10,90;NaN,0.1,4,5", "col mem: sample 1"},
	{"+Inf net", "c,10,90,0.1,4,5;5;+Inf", "col net: sample 2"},
	{"-Inf cpu", "c,-Inf,90,0.1,4,5", "col cpu: sample 0"},
	{"negative disk", "c,10,90,0.1,4;-0.5,5", "col disk: sample 1"},
	{"NaN membw", "c,10,90,nan,4,5", "col membw: sample 0"},
}

// TestReadAlibabaCSVRejectsBadSamples: a sample that is not a finite
// non-negative number is an error naming its line, column and sample
// index. Figs 9–12 would otherwise fold it silently: a NaN memory sample
// drops out of Fig 9's percentiles, a +Inf network sample shifts Fig
// 12's under-allocation medians.
func TestReadAlibabaCSVRejectsBadSamples(t *testing.T) {
	for _, tc := range alibabaBadRows {
		tr, err := ReadAlibabaCSV(strings.NewReader(alibabaGoodHead + tc.row + "\n"))
		if err == nil {
			t.Errorf("%s: read a %d-container trace, want an error", tc.name, len(tr.Containers))
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "line 3") || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: error %q does not name line 3 and %q", tc.name, msg, tc.want)
		}
	}
	// Zero samples and empty series stay legal.
	tr, err := ReadAlibabaCSV(strings.NewReader(alibabaGoodHead + "z,0,0;0,,0,0\n"))
	if err != nil || len(tr.Containers) != 2 {
		t.Fatalf("zero samples: trace %v, err %v", tr, err)
	}
}

func TestEmptySeriesRoundTrip(t *testing.T) {
	tr := &AzureTrace{VMs: []*VMRecord{{ID: "vm-0", Class: Unknown, Cores: 1, MemoryMB: 1024}}}
	var buf bytes.Buffer
	if err := WriteAzureCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAzureCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.VMs[0].CPUUtil) != 0 {
		t.Error("empty series should survive round trip")
	}
}

// unholdableHead is a header and one good row (line 2, an "ok" VM live
// in [0, 300)); each unholdableRows entry appended to it is line 3 and
// breaks one rule.
const unholdableHead = "id,class,cores,memory_mb,start,end,cpu_util\nok,interactive,1,1024,0,300,10\n"

var unholdableRows = map[string]string{
	"NaN start":        "v,interactive,1,1024,NaN,300,10",
	"+Inf start":       "v,interactive,1,1024,+Inf,300,10",
	"negative start":   "v,interactive,1,1024,-1,300,10",
	"NaN end":          "v,interactive,1,1024,0,NaN,10",
	"+Inf end":         "v,interactive,1,1024,0,Inf,10",
	"-Inf end":         "v,interactive,1,1024,0,-Inf,10",
	"negative end":     "v,interactive,1,1024,0,-300,10",
	"end before start": "v,interactive,1,1024,600,300,10",
	"zero cores":       "v,interactive,0,1024,0,300,10",
	"negative cores":   "v,interactive,-2,1024,0,300,10",
	"zero memory":      "v,interactive,1,0,0,300,10",
	"negative memory":  "v,interactive,1,-5,0,300,10",
	"NaN memory":       "v,interactive,1,NaN,0,300,10",
	"Inf memory":       "v,interactive,1,Inf,0,300,10",
	"NaN sample":       "v,interactive,1,1024,0,600,10;NaN",
	"Inf sample":       "v,interactive,1,1024,0,600,Inf;10",
	"negative sample":  "v,interactive,1,1024,0,600,10;-0.5",
	"sample above 100": "v,interactive,1,1024,0,600,10;150",
	// The name-keyed manager would count the second "ok" as a
	// rejection while the first still runs.
	"ID live twice": "ok,delay-insensitive,2,2048,100,400,10",
}

// TestReadAzureCSVRejectsUnholdableRows: every row a run cannot hold —
// its arrival order is a sort on start and its events are ordered by
// (time, kind, seq) — is a line-numbered error, not a trace. One case per
// rule; the row sits on line 3 behind a good one.
func TestReadAzureCSVRejectsUnholdableRows(t *testing.T) {
	for name, row := range unholdableRows {
		tr, err := ReadAzureCSV(strings.NewReader(unholdableHead + row + "\n"))
		if err == nil {
			t.Errorf("%s: read a %d-VM trace, want an error", name, len(tr.VMs))
			continue
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%s: error %q does not name line 3", name, err)
		}
	}
	// A sample above 100 % is named by its index.
	if _, err := ReadAzureCSV(strings.NewReader(unholdableHead + unholdableRows["sample above 100"] + "\n")); err == nil ||
		!strings.Contains(err.Error(), "sample 1 is 150") {
		t.Errorf("sample above 100: err %v, want one naming sample 1", err)
	}
	// What stays legal: a zero-lifetime VM, an empty series and a sample
	// of exactly 100.
	tr, err := ReadAzureCSV(strings.NewReader(unholdableHead + "z,unknown,2,512.5,300,300,\n" + "f,interactive,1,1024,0,600,100;100\n"))
	if err != nil || len(tr.VMs) != 3 {
		t.Fatalf("zero-lifetime row and full-utilisation row: trace %v, err %v", tr, err)
	}
	// An ID live twice is named by both of its lines, whichever comes
	// first in the file; reuse after a departure (lifetimes that touch)
	// and a zero-lifetime row inside another's lifetime stay legal.
	_, err = ReadAzureCSV(strings.NewReader(unholdableHead +
		"vm-a,interactive,2,2048,600,3600,10\n" +
		"vm-b,interactive,2,2048,0,600,10\n" +
		"vm-a,interactive,2,2048,0,7200,10\n"))
	if err == nil || !strings.Contains(err.Error(), "line 5") || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("ID live twice on lines 3 and 5: err %v, want one naming both lines", err)
	}
	tr, err = ReadAzureCSV(strings.NewReader(unholdableHead +
		"ok,interactive,1,1024,300,900,10\n" +
		"ok,interactive,1,1024,500,500,\n" +
		"ok,interactive,1,1024,900,1200,10\n"))
	if err != nil || len(tr.VMs) != 4 {
		t.Fatalf("touching and zero-lifetime reuse of an ID: trace %v, err %v", tr, err)
	}
}

// TestScenarioCSVRoundTrips: the validation rejects nothing the named
// generators produce.
func TestScenarioCSVRoundTrips(t *testing.T) {
	for _, kind := range Scenarios() {
		orig, err := GenerateScenario(ScenarioConfig{Kind: kind, NumVMs: 300, Duration: 86400, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteAzureCSV(&buf, orig); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAzureCSV(&buf)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(got.VMs) != len(orig.VMs) {
			t.Fatalf("%v: round trip read %d of %d VMs", kind, len(got.VMs), len(orig.VMs))
		}
	}
}

package feasibility

import (
	"errors"
	"math"
	"strings"
	"testing"

	"vmdeflate/internal/stats"

	"vmdeflate/internal/trace"
)

func azure(t *testing.T, n int) *trace.AzureTrace {
	t.Helper()
	tr, err := trace.GenerateNamed("azure", n, 3*86400, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func alibaba(t *testing.T, n int) *trace.AlibabaTrace {
	t.Helper()
	cfg := trace.DefaultAlibabaConfig()
	cfg.NumContainers = n
	return trace.GenerateAlibaba(cfg)
}

func TestCPUFeasibilityShape(t *testing.T) {
	tr := azure(t, 800)
	tab, err := CPUFeasibility(tr, DefaultDeflationLevels)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(DefaultDeflationLevels) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Fractions are monotone in deflation level (higher deflation ->
	// more time above the allocation) for every quantile.
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i].Box.Median < tab.Rows[i-1].Box.Median-1e-9 {
			t.Errorf("median not monotone at level %v", tab.Rows[i].DeflationPct)
		}
	}
	// Figure 5's headline: at 50% deflation the median VM is below the
	// deflated allocation ~80% of the time (fraction above <= ~0.2).
	var at50 Row
	for _, r := range tab.Rows {
		if r.DeflationPct == 50 {
			at50 = r
		}
	}
	if at50.Box.Median > 0.3 {
		t.Errorf("median fraction-above at 50%% = %v, want <= 0.3 (paper ~0.2)", at50.Box.Median)
	}
}

func TestByClassSeparation(t *testing.T) {
	tr := azure(t, 1000)
	tabs, err := ByClass(tr, DefaultDeflationLevels)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("tables = %d", len(tabs))
	}
	byName := map[string]Table{}
	for _, tab := range tabs {
		byName[tab.Name] = tab
	}
	inter, batch := byName["interactive"], byName["delay-insensitive"]
	// Figure 6: interactive VMs have more slack than batch at every
	// deflation level (compare means).
	for i := range inter.Rows {
		if inter.Rows[i].Box.Mean > batch.Rows[i].Box.Mean+0.02 {
			t.Errorf("at %v%%: interactive mean %v should be <= batch %v",
				inter.Rows[i].DeflationPct, inter.Rows[i].Box.Mean, batch.Rows[i].Box.Mean)
		}
	}
}

func TestBySizeNoCorrelation(t *testing.T) {
	tr := azure(t, 1200)
	tabs, err := BySize(tr, []float64{30, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("tables = %d", len(tabs))
	}
	// Figure 7: all size classes see similar impact — means within a
	// modest band of each other at each level.
	for i := range tabs[0].Rows {
		lo, hi := 1.0, 0.0
		for _, tab := range tabs {
			m := tab.Rows[i].Box.Mean
			if m < lo {
				lo = m
			}
			if m > hi {
				hi = m
			}
		}
		if hi-lo > 0.15 {
			t.Errorf("size classes diverge at %v%%: spread %v", tabs[0].Rows[i].DeflationPct, hi-lo)
		}
	}
}

func TestByPeakOrdering(t *testing.T) {
	tr := azure(t, 1500)
	tabs, err := ByPeak(tr, []float64{20, 50})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table{}
	for _, tab := range tabs {
		byName[tab.Name] = tab
	}
	low, ok1 := byName["p95<33"]
	high, ok2 := byName["p95>=80"]
	if !ok1 || !ok2 {
		t.Fatalf("peak buckets not both populated: %d tables", len(tabs))
	}
	// Figure 8: higher peak load -> greater impact when deflated.
	for i := range low.Rows {
		if low.Rows[i].Box.Mean > high.Rows[i].Box.Mean {
			t.Errorf("at %v%%: low-peak mean %v should be <= high-peak %v",
				low.Rows[i].DeflationPct, low.Rows[i].Box.Mean, high.Rows[i].Box.Mean)
		}
	}
	// Low-peak VMs see minimal impact at 20% deflation.
	if low.Rows[0].Box.Mean > 0.05 {
		t.Errorf("low-peak VMs at 20%% deflation: mean %v, want ~0", low.Rows[0].Box.Mean)
	}
}

func TestMemoryFeasibilityHigh(t *testing.T) {
	tr := alibaba(t, 400)
	tab, err := MemoryFeasibility(tr, []float64{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 9: even 10% memory deflation looks heavily under-allocated.
	if tab.Rows[0].Box.Mean < 0.5 {
		t.Errorf("memory fraction-above at 10%% = %v, want high (paper >0.7)", tab.Rows[0].Box.Mean)
	}
}

func TestMemoryBandwidthTiny(t *testing.T) {
	tr := alibaba(t, 400)
	s, err := MemoryBandwidthUsage(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 10: mean well under 1%, max ~1%.
	if s.MeanOfMeans > 0.2 {
		t.Errorf("mean memory BW = %v%%, want < 0.2%%", s.MeanOfMeans)
	}
	if s.MaxOfMax > 1.001 {
		t.Errorf("max memory BW = %v%%, want <= 1%%", s.MaxOfMax)
	}
}

func TestDiskAndNetworkLow(t *testing.T) {
	tr := alibaba(t, 400)
	disk, err := DiskFeasibility(tr, []float64{50})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 11: at 50% disk deflation, under-allocated <1-2% of time.
	if disk.Rows[0].Box.Mean > 0.02 {
		t.Errorf("disk fraction-above at 50%% = %v", disk.Rows[0].Box.Mean)
	}
	net, err := NetworkFeasibility(tr, []float64{50, 70})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 12: below 50% deflation impact near zero; ~1% at 70%.
	if net.Rows[0].Box.Mean > 0.01 {
		t.Errorf("net fraction-above at 50%% = %v", net.Rows[0].Box.Mean)
	}
	if net.Rows[1].Box.Mean > 0.04 {
		t.Errorf("net fraction-above at 70%% = %v", net.Rows[1].Box.Mean)
	}
}

func TestEmptyTraceErrors(t *testing.T) {
	if _, err := CPUFeasibility(&trace.AzureTrace{}, []float64{50}); err == nil {
		t.Error("empty trace should error")
	}
	if _, err := MemoryBandwidthUsage(&trace.AlibabaTrace{}); err == nil {
		t.Error("empty container trace should error")
	}
}

func TestFormatTable(t *testing.T) {
	tr := azure(t, 50)
	tab, err := CPUFeasibility(tr, []float64{50})
	if err != nil {
		t.Fatal(err)
	}
	s := FormatTable(tab)
	if !strings.Contains(s, "cpu-all") || !strings.Contains(s, "median") {
		t.Errorf("format output missing headers: %q", s)
	}
	if len(strings.Split(strings.TrimSpace(s), "\n")) != 3 {
		t.Errorf("unexpected line count in %q", s)
	}
}

// vm is a one-row test record: util is its whole series (none for a
// zero-lifetime row).
func vm(id string, class trace.VMClass, memMB float64, util ...float64) *trace.VMRecord {
	end := float64(len(util)) * trace.SampleInterval
	return &trace.VMRecord{ID: id, Class: class, Cores: 1, MemoryMB: memMB, End: end, CPUUtil: util}
}

// bucketOf is the name of the one table groupBy builds for a one-VM trace.
func bucketOf(t *testing.T, groupBy func(*trace.AzureTrace, []float64) ([]Table, error), r *trace.VMRecord) string {
	t.Helper()
	tabs, err := groupBy(&trace.AzureTrace{VMs: []*trace.VMRecord{r}}, []float64{50})
	if err != nil || len(tabs) != 1 {
		t.Fatalf("%d tables, err %v; want one", len(tabs), err)
	}
	return tabs[0].Name
}

// TestSizeClassification pins Figure 7's bucket edges: at most 2 GB is
// small, at most 8 GB medium, and anything larger large.
func TestSizeClassification(t *testing.T) {
	for _, c := range []struct {
		memMB float64
		want  string
	}{
		{1024, "small(<=2GB)"}, {2048, "small(<=2GB)"}, {2049, "medium(<=8GB)"},
		{8192, "medium(<=8GB)"}, {8193, "large(>8GB)"}, {65536, "large(>8GB)"},
	} {
		if got := bucketOf(t, BySize, vm("vm-1", trace.Interactive, c.memMB, 50)); got != c.want {
			t.Errorf("%v MB is in %s, want %s", c.memMB, got, c.want)
		}
	}
}

// TestPeakClassification pins Figure 8's bucket edges on the P95: each
// lower edge belongs to the bucket above it.
func TestPeakClassification(t *testing.T) {
	for _, c := range []struct {
		p95  float64
		want string
	}{
		{10, "p95<33"}, {32.9, "p95<33"}, {33, "33<=p95<66"},
		{65.9, "33<=p95<66"}, {66, "66<=p95<80"}, {79.9, "66<=p95<80"},
		{80, "p95>=80"}, {100, "p95>=80"},
	} {
		if got := bucketOf(t, ByPeak, vm("vm-1", trace.Interactive, 1024, c.p95, c.p95)); got != c.want {
			t.Errorf("P95 %v is in %s, want %s", c.p95, got, c.want)
		}
	}
}

// TestBreakdownSkipsSampleLessRows: a zero-lifetime row (legal in an
// Azure CSV) has no samples and a NaN P95. Alone in its class, or put in
// the top peak bucket by its NaN, it used to fail Figure 6 or 8 with
// "stats: empty sample"; now it is in no bucket.
func TestBreakdownSkipsSampleLessRows(t *testing.T) {
	tr := &trace.AzureTrace{VMs: []*trace.VMRecord{
		vm("vm-1", trace.Interactive, 1024, 10, 20, 30),
		vm("vm-2", trace.DelayInsensitive, 1024),
	}}
	for name, groupBy := range map[string]func(*trace.AzureTrace, []float64) ([]Table, error){
		"ByClass": ByClass, "BySize": BySize, "ByPeak": ByPeak,
	} {
		tabs, err := groupBy(tr, DefaultDeflationLevels)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tabs) != 1 {
			t.Errorf("%s: %d tables, want the sampled VM's one", name, len(tabs))
		}
	}
	tr.VMs = tr.VMs[1:]
	if _, err := ByClass(tr, DefaultDeflationLevels); !errors.Is(err, stats.ErrEmpty) {
		t.Errorf("ByClass with no sampled VM: err = %v, want stats.ErrEmpty", err)
	}
}

// TestByClassRejectsUnknownClass: a class outside the three labels is an
// error naming the row, not an index panic.
func TestByClassRejectsUnknownClass(t *testing.T) {
	tr := &trace.AzureTrace{VMs: []*trace.VMRecord{vm("vm-1", trace.Interactive, 1024, 50), vm("vm-odd", trace.VMClass(7), 1024, 50)}}
	_, err := ByClass(tr, DefaultDeflationLevels)
	if err == nil || !strings.Contains(err.Error(), `"vm-odd" (row 1)`) {
		t.Errorf("err = %v, want one naming vm-odd's row", err)
	}
}

// TestMemoryBandwidthSkipsEmptySeries: a container with no bandwidth
// samples used to turn Figure 10 into NaN; now it is skipped, and only a
// trace with no series left is an error.
func TestMemoryBandwidthSkipsEmptySeries(t *testing.T) {
	tr := &trace.AlibabaTrace{Containers: []*trace.ContainerRecord{
		{ID: "c-1", MemBWUtil: []float64{0.1, 0.3}},
		{ID: "c-2"},
	}}
	s, err := MemoryBandwidthUsage(tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanOfMeans != 0.2 || s.MaxOfMax != 0.3 || math.IsNaN(s.Box.Mean) {
		t.Errorf("summary %+v, want the one series' mean 0.2 and max 0.3", s)
	}
	tr.Containers = tr.Containers[1:]
	if _, err := MemoryBandwidthUsage(tr); !errors.Is(err, stats.ErrEmpty) {
		t.Errorf("err = %v, want stats.ErrEmpty", err)
	}
}

// Package feasibility implements the Section 3 trace analysis: for each
// VM (or container) and each candidate deflation level, the fraction of
// its lifetime that resource usage exceeds the deflated allocation. Box
// plots of these fractions across the population are exactly Figures
// 5-12.
package feasibility

import (
	"fmt"

	"vmdeflate/internal/stats"
	"vmdeflate/internal/trace"
)

// DefaultDeflationLevels is the x-axis shared by Figures 5-12.
var DefaultDeflationLevels = []float64{10, 20, 30, 40, 50, 60, 70, 80, 90}

// Row is one deflation level's population summary.
type Row struct {
	DeflationPct float64
	Box          stats.BoxPlot
}

// Table is a named series of rows, e.g. one box-plot group.
type Table struct {
	Name string
	Rows []Row
}

// fractionTable summarises, per deflation level, the distribution across
// series of the fraction of samples above the deflated allocation.
func fractionTable(name string, series [][]float64, levels []float64) (Table, error) {
	t := Table{Name: name}
	for _, lvl := range levels {
		threshold := 100 - lvl
		fracs := make([]float64, 0, len(series))
		for _, s := range series {
			if len(s) == 0 {
				continue
			}
			fracs = append(fracs, stats.FractionAbove(s, threshold))
		}
		box, err := stats.NewBoxPlot(fracs)
		if err != nil {
			return Table{}, fmt.Errorf("feasibility: %s at %g%%: %w", name, lvl, err)
		}
		t.Rows = append(t.Rows, Row{DeflationPct: lvl, Box: box})
	}
	return t, nil
}

// grouped is Figures 6-8's breakdown: it puts every VM with samples in
// the bucket bucket(row) names, an index into names, and builds one
// table per non-empty bucket, in the order of names. A VM with no
// samples (a zero-lifetime row) is in no bucket.
func grouped(tr *trace.AzureTrace, levels []float64, names []string, bucket func(row int) int) ([]Table, error) {
	series := make([][][]float64, len(names))
	for row, vm := range tr.VMs {
		if len(vm.CPUUtil) == 0 {
			continue
		}
		b := bucket(row)
		if b < 0 || b >= len(names) {
			return nil, fmt.Errorf("feasibility: VM %q (row %d) is in no bucket of %v", vm.ID, row, names)
		}
		series[b] = append(series[b], vm.CPUUtil)
	}
	var out []Table
	for b, s := range series {
		if len(s) == 0 {
			continue
		}
		t, err := fractionTable(names[b], s, levels)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("feasibility: no VM has samples: %w", stats.ErrEmpty)
	}
	return out, nil
}

// CPUFeasibility reproduces Figure 5: the distribution across all VMs of
// the fraction of time CPU usage exceeds each deflated allocation.
func CPUFeasibility(tr *trace.AzureTrace, levels []float64) (Table, error) {
	series := make([][]float64, 0, len(tr.VMs))
	for _, vm := range tr.VMs {
		series = append(series, vm.CPUUtil)
	}
	return fractionTable("cpu-all", series, levels)
}

// ByClass reproduces Figure 6: Figure 5 broken down by workload class.
func ByClass(tr *trace.AzureTrace, levels []float64) ([]Table, error) {
	// A class is its bucket's index.
	names := []string{trace.Interactive.String(), trace.DelayInsensitive.String(), trace.Unknown.String()}
	return grouped(tr, levels, names, func(row int) int { return int(tr.VMs[row].Class) })
}

// BySize reproduces Figure 7: deflatability by VM memory size.
func BySize(tr *trace.AzureTrace, levels []float64) ([]Table, error) {
	return grouped(tr, levels, []string{"small(<=2GB)", "medium(<=8GB)", "large(>8GB)"}, func(row int) int {
		switch mb := tr.VMs[row].MemoryMB; {
		case mb <= 2048:
			return 0
		case mb <= 8192:
			return 1
		}
		return 2
	})
}

// ByPeak reproduces Figure 8: deflatability by 95th-percentile CPU usage.
func ByPeak(tr *trace.AzureTrace, levels []float64) ([]Table, error) {
	p95 := tr.P95Column()
	return grouped(tr, levels, []string{"p95<33", "33<=p95<66", "66<=p95<80", "p95>=80"}, func(row int) int {
		switch p := p95[row]; {
		case p < 33:
			return 0
		case p < 66:
			return 1
		case p < 80:
			return 2
		}
		return 3
	})
}

// containerSeries extracts one utilisation dimension from a container
// trace.
func containerSeries(tr *trace.AlibabaTrace, pick func(*trace.ContainerRecord) []float64) [][]float64 {
	out := make([][]float64, 0, len(tr.Containers))
	for _, c := range tr.Containers {
		out = append(out, pick(c))
	}
	return out
}

// MemoryFeasibility reproduces Figure 9: container memory occupancy vs
// deflated allocations.
func MemoryFeasibility(tr *trace.AlibabaTrace, levels []float64) (Table, error) {
	return fractionTable("memory", containerSeries(tr, func(c *trace.ContainerRecord) []float64 { return c.MemUtil }), levels)
}

// MemoryBandwidthSummary is Figure 10: the distribution of per-container
// mean and max memory-bus bandwidth utilisation (percent).
type MemoryBandwidthSummary struct {
	MeanOfMeans float64
	MaxOfMax    float64
	Box         stats.BoxPlot
}

// MemoryBandwidthUsage summarises memory-bus utilisation (Figure 10) over
// the containers with a bandwidth series; it returns stats.ErrEmpty when
// none has one.
func MemoryBandwidthUsage(tr *trace.AlibabaTrace) (MemoryBandwidthSummary, error) {
	var means []float64
	maxOfMax := 0.0
	for _, c := range tr.Containers {
		if len(c.MemBWUtil) == 0 {
			continue
		}
		means = append(means, stats.Mean(c.MemBWUtil))
		if m := stats.Max(c.MemBWUtil); m > maxOfMax {
			maxOfMax = m
		}
	}
	box, err := stats.NewBoxPlot(means)
	if err != nil {
		return MemoryBandwidthSummary{}, err
	}
	return MemoryBandwidthSummary{
		MeanOfMeans: stats.Mean(means),
		MaxOfMax:    maxOfMax,
		Box:         box,
	}, nil
}

// DiskFeasibility reproduces Figure 11.
func DiskFeasibility(tr *trace.AlibabaTrace, levels []float64) (Table, error) {
	return fractionTable("disk", containerSeries(tr, func(c *trace.ContainerRecord) []float64 { return c.DiskUtil }), levels)
}

// NetworkFeasibility reproduces Figure 12.
func NetworkFeasibility(tr *trace.AlibabaTrace, levels []float64) (Table, error) {
	return fractionTable("network", containerSeries(tr, func(c *trace.ContainerRecord) []float64 { return c.NetUtil }), levels)
}

// FormatTable renders a table as aligned text rows (deflation%, then the
// five-number summary), for the CLI tools.
func FormatTable(t Table) string {
	s := fmt.Sprintf("# %s\n%10s %8s %8s %8s %8s %8s %8s\n",
		t.Name, "defl%", "min", "q1", "median", "q3", "max", "mean")
	for _, r := range t.Rows {
		b := r.Box
		s += fmt.Sprintf("%10.0f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f\n",
			r.DeflationPct, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
	}
	return s
}

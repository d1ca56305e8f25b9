// Command feasibility runs the Section 3 trace analysis and prints the
// tables behind Figures 5-12.
//
// Usage:
//
//	feasibility                       # synthetic traces, all figures
//	feasibility -azure azure.csv      # real/preserved Azure-format CSV
//	feasibility -fig 6                # one figure only
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"vmdeflate/internal/feasibility"
	"vmdeflate/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("feasibility: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args and prints the selected figures' tables to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	azurePath := fs.String("azure", "", "Azure-format CSV (default: synthetic)")
	alibabaPath := fs.String("alibaba", "", "Alibaba-format CSV (default: synthetic)")
	nVMs := fs.Int("vms", 2000, "synthetic Azure trace size")
	nContainers := fs.Int("containers", 2000, "synthetic Alibaba trace size")
	seed := fs.Int64("seed", 1, "synthetic trace seed")
	fig := fs.Int("fig", 0, "only this figure (5-12); 0 = all")
	fs.Parse(args) // ExitOnError: a bad flag exits here, as flag.Parse did
	if err := checkFig(*fig); err != nil {
		return err
	}

	var shown []figure
	for _, f := range figures {
		if *fig == 0 || *fig == f.n {
			shown = append(shown, f)
		}
	}
	// Load what the shown figures read, all of it before the first line
	// of output, so a bad flag fails with nothing printed.
	var tr traces
	for _, f := range shown {
		var err error
		switch {
		case f.containers && tr.alibaba == nil:
			tr.alibaba, err = loadAlibaba(*alibabaPath, *nContainers, *seed)
		case !f.containers && tr.azure == nil:
			tr.azure, err = loadAzure(*azurePath, *nVMs, *seed)
		}
		if err != nil {
			return err
		}
	}
	for _, f := range shown {
		body, err := f.render(tr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== Figure %d: %s\n%s", f.n, f.title, body)
	}
	return nil
}

// loadAzure reads the Azure-format CSV at path, or synthesises n VMs
// over three days when path is empty.
func loadAzure(path string, n int, seed int64) (*trace.AzureTrace, error) {
	if path == "" {
		if n < 1 {
			return nil, fmt.Errorf("-vms %d: want at least 1 VM in the synthetic trace", n)
		}
		return trace.GenerateNamed("azure", n, 3*86400, seed)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadAzureCSV(f)
}

// loadAlibaba reads the Alibaba-format CSV at path, or synthesises n
// containers when path is empty.
func loadAlibaba(path string, n int, seed int64) (*trace.AlibabaTrace, error) {
	if path == "" {
		if n < 1 {
			return nil, fmt.Errorf("-containers %d: want at least 1 container in the synthetic trace", n)
		}
		cfg := trace.DefaultAlibabaConfig()
		cfg.NumContainers = n
		cfg.Seed = seed
		return trace.GenerateAlibaba(cfg), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadAlibabaCSV(f)
}

// traces holds the two traces; a figure reads one of them.
type traces struct {
	azure   *trace.AzureTrace
	alibaba *trace.AlibabaTrace
}

// figure is one figure -fig selects: its number and title, the trace it
// reads (the Alibaba containers, else the Azure VMs) and what it prints.
type figure struct {
	n          int
	title      string
	containers bool
	render     func(traces) (string, error)
}

var levels = feasibility.DefaultDeflationLevels

// figures lists the figures -fig selects, in print order.
var figures = []figure{
	{5, "fraction of time CPU usage exceeds deflated allocation (all VMs)", false, func(tr traces) (string, error) {
		return table(feasibility.CPUFeasibility(tr.azure, levels))
	}},
	{6, "deflatability by workload class", false, func(tr traces) (string, error) {
		return tables(feasibility.ByClass(tr.azure, levels))
	}},
	{7, "deflatability by VM memory size", false, func(tr traces) (string, error) {
		return tables(feasibility.BySize(tr.azure, levels))
	}},
	{8, "deflatability by 95th-percentile CPU usage", false, func(tr traces) (string, error) {
		return tables(feasibility.ByPeak(tr.azure, levels))
	}},
	{9, "container memory occupancy vs deflated allocation", true, func(tr traces) (string, error) {
		return table(feasibility.MemoryFeasibility(tr.alibaba, levels))
	}},
	{10, "memory-bus bandwidth utilisation", true, func(tr traces) (string, error) {
		s, err := feasibility.MemoryBandwidthUsage(tr.alibaba)
		return fmt.Sprintf("mean-of-means = %.4f%%  max = %.4f%%\nper-container means: %s\n",
			s.MeanOfMeans, s.MaxOfMax, s.Box), err
	}},
	{11, "disk bandwidth deflation feasibility", true, func(tr traces) (string, error) {
		return table(feasibility.DiskFeasibility(tr.alibaba, levels))
	}},
	{12, "network bandwidth deflation feasibility", true, func(tr traces) (string, error) {
		return table(feasibility.NetworkFeasibility(tr.alibaba, levels))
	}},
}

// table formats a one-table analysis and passes its error on.
func table(t feasibility.Table, err error) (string, error) {
	return tables([]feasibility.Table{t}, err)
}

// tables formats a many-table analysis and passes its error on.
func tables(ts []feasibility.Table, err error) (string, error) {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(feasibility.FormatTable(t))
	}
	return b.String(), err
}

// checkFig rejects a -fig that would select no figure.
func checkFig(fig int) error {
	var ns []int
	for _, f := range figures {
		ns = append(ns, f.n)
	}
	if fig == 0 || slices.Contains(ns, fig) {
		return nil
	}
	return fmt.Errorf("-fig %d: want 0 for all, or one of %v", fig, ns)
}

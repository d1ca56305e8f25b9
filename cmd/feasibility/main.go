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

	azure, err := loadAzure(*azurePath, *nVMs, *seed)
	if err != nil {
		return err
	}
	alibaba, err := loadAlibaba(*alibabaPath, *nContainers, *seed)
	if err != nil {
		return err
	}
	levels := feasibility.DefaultDeflationLevels

	show := func(n int) bool { return *fig == 0 || *fig == n }

	if show(5) {
		t, err := feasibility.CPUFeasibility(azure, levels)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 5: fraction of time CPU usage exceeds deflated allocation (all VMs)")
		fmt.Fprint(w, feasibility.FormatTable(t))
	}
	if show(6) {
		ts, err := feasibility.ByClass(azure, levels)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 6: deflatability by workload class")
		for _, t := range ts {
			fmt.Fprint(w, feasibility.FormatTable(t))
		}
	}
	if show(7) {
		ts, err := feasibility.BySize(azure, levels)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 7: deflatability by VM memory size")
		for _, t := range ts {
			fmt.Fprint(w, feasibility.FormatTable(t))
		}
	}
	if show(8) {
		ts, err := feasibility.ByPeak(azure, levels)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 8: deflatability by 95th-percentile CPU usage")
		for _, t := range ts {
			fmt.Fprint(w, feasibility.FormatTable(t))
		}
	}
	if show(9) {
		t, err := feasibility.MemoryFeasibility(alibaba, levels)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 9: container memory occupancy vs deflated allocation")
		fmt.Fprint(w, feasibility.FormatTable(t))
	}
	if show(10) {
		s, err := feasibility.MemoryBandwidthUsage(alibaba)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 10: memory-bus bandwidth utilisation")
		fmt.Fprintf(w, "mean-of-means = %.4f%%  max = %.4f%%\nper-container means: %s\n",
			s.MeanOfMeans, s.MaxOfMax, s.Box)
	}
	if show(11) {
		t, err := feasibility.DiskFeasibility(alibaba, levels)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 11: disk bandwidth deflation feasibility")
		fmt.Fprint(w, feasibility.FormatTable(t))
	}
	if show(12) {
		t, err := feasibility.NetworkFeasibility(alibaba, levels)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Figure 12: network bandwidth deflation feasibility")
		fmt.Fprint(w, feasibility.FormatTable(t))
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

// figures lists the figures -fig selects.
var figures = []int{5, 6, 7, 8, 9, 10, 11, 12}

// checkFig rejects a -fig that would select no figure.
func checkFig(fig int) error {
	if fig == 0 || slices.Contains(figures, fig) {
		return nil
	}
	return fmt.Errorf("-fig %d: want 0 for all, or one of %v", fig, figures)
}

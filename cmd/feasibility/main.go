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
	"log"
	"os"
	"slices"

	"vmdeflate/internal/feasibility"
	"vmdeflate/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("feasibility: ")

	azurePath := flag.String("azure", "", "Azure-format CSV (default: synthetic)")
	alibabaPath := flag.String("alibaba", "", "Alibaba-format CSV (default: synthetic)")
	nVMs := flag.Int("vms", 2000, "synthetic Azure trace size")
	nContainers := flag.Int("containers", 2000, "synthetic Alibaba trace size")
	seed := flag.Int64("seed", 1, "synthetic trace seed")
	fig := flag.Int("fig", 0, "only this figure (5-12); 0 = all")
	flag.Parse()
	check(checkFig(*fig))

	azure := loadAzure(*azurePath, *nVMs, *seed)
	alibaba := loadAlibaba(*alibabaPath, *nContainers, *seed)
	levels := feasibility.DefaultDeflationLevels

	show := func(n int) bool { return *fig == 0 || *fig == n }

	if show(5) {
		t, err := feasibility.CPUFeasibility(azure, levels)
		check(err)
		fmt.Println("== Figure 5: fraction of time CPU usage exceeds deflated allocation (all VMs)")
		fmt.Print(feasibility.FormatTable(t))
	}
	if show(6) {
		ts, err := feasibility.ByClass(azure, levels)
		check(err)
		fmt.Println("== Figure 6: deflatability by workload class")
		for _, t := range ts {
			fmt.Print(feasibility.FormatTable(t))
		}
	}
	if show(7) {
		ts, err := feasibility.BySize(azure, levels)
		check(err)
		fmt.Println("== Figure 7: deflatability by VM memory size")
		for _, t := range ts {
			fmt.Print(feasibility.FormatTable(t))
		}
	}
	if show(8) {
		ts, err := feasibility.ByPeak(azure, levels)
		check(err)
		fmt.Println("== Figure 8: deflatability by 95th-percentile CPU usage")
		for _, t := range ts {
			fmt.Print(feasibility.FormatTable(t))
		}
	}
	if show(9) {
		t, err := feasibility.MemoryFeasibility(alibaba, levels)
		check(err)
		fmt.Println("== Figure 9: container memory occupancy vs deflated allocation")
		fmt.Print(feasibility.FormatTable(t))
	}
	if show(10) {
		s, err := feasibility.MemoryBandwidthUsage(alibaba)
		check(err)
		fmt.Println("== Figure 10: memory-bus bandwidth utilisation")
		fmt.Printf("mean-of-means = %.4f%%  max = %.4f%%\nper-container means: %s\n",
			s.MeanOfMeans, s.MaxOfMax, s.Box)
	}
	if show(11) {
		t, err := feasibility.DiskFeasibility(alibaba, levels)
		check(err)
		fmt.Println("== Figure 11: disk bandwidth deflation feasibility")
		fmt.Print(feasibility.FormatTable(t))
	}
	if show(12) {
		t, err := feasibility.NetworkFeasibility(alibaba, levels)
		check(err)
		fmt.Println("== Figure 12: network bandwidth deflation feasibility")
		fmt.Print(feasibility.FormatTable(t))
	}
}

func loadAzure(path string, n int, seed int64) *trace.AzureTrace {
	if path == "" {
		cfg := trace.DefaultAzureConfig()
		cfg.NumVMs = n
		cfg.Seed = seed
		return trace.GenerateAzure(cfg)
	}
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	tr, err := trace.ReadAzureCSV(f)
	check(err)
	return tr
}

func loadAlibaba(path string, n int, seed int64) *trace.AlibabaTrace {
	if path == "" {
		cfg := trace.DefaultAlibabaConfig()
		cfg.NumContainers = n
		cfg.Seed = seed
		return trace.GenerateAlibaba(cfg)
	}
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	tr, err := trace.ReadAlibabaCSV(f)
	check(err)
	return tr
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

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

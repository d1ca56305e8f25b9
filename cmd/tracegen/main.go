// Command tracegen generates synthetic Azure-like VM traces and
// Alibaba-like container traces (Section 3's datasets) as CSV.
//
// Usage:
//
//	tracegen -kind azure  -n 10000 -days 3 -seed 1 -o azure.csv
//	tracegen -kind alibaba -n 4000 -samples 288 -seed 1 -o alibaba.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"vmdeflate/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")

	kind := flag.String("kind", "azure", "trace kind: azure or alibaba")
	n := flag.Int("n", 1000, "number of VMs / containers")
	days := flag.Float64("days", 3, "trace horizon in days (azure)")
	samples := flag.Int("samples", 288, "samples per container (alibaba)")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("o", "-", "output file (- for stdout)")
	flag.Parse()

	write, summary, err := build(*kind, *n, *days, *samples, *seed)
	if err != nil {
		log.Fatal(err)
	}
	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := write(w); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "tracegen: %s\n", summary)
}

// build synthesises the requested trace and returns its CSV writer and
// a one-line summary. Bad parameters fail here, before any output file
// is created.
func build(kind string, n int, days float64, samples int, seed int64) (func(io.Writer) error, string, error) {
	switch kind {
	case "azure":
		tr, err := trace.GenerateScenario(trace.ScenarioConfig{
			Kind: trace.ScenarioAzure, NumVMs: n, Duration: days * 86400, Seed: seed,
		})
		if err != nil {
			return nil, "", err
		}
		write := func(w io.Writer) error { return trace.WriteAzureCSV(w, tr) }
		return write, fmt.Sprintf("wrote %d VMs over %.1f days", len(tr.VMs), days), nil
	case "alibaba":
		if samples < 1 {
			return nil, "", fmt.Errorf("-samples %d: want at least 1 sample per container", samples)
		}
		cfg := trace.DefaultAlibabaConfig()
		cfg.NumContainers = n
		cfg.Samples = samples
		cfg.Seed = seed
		tr := trace.GenerateAlibaba(cfg)
		write := func(w io.Writer) error { return trace.WriteAlibabaCSV(w, tr) }
		return write, fmt.Sprintf("wrote %d containers x %d samples", len(tr.Containers), samples), nil
	}
	return nil, "", fmt.Errorf("unknown kind %q (want azure or alibaba)", kind)
}

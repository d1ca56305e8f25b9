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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args and writes the trace to the -o file, or to stdout
// for "-", and its summary to stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	kind := fs.String("kind", "azure", "trace kind: azure or alibaba")
	n := fs.Int("n", 1000, "number of VMs / containers")
	days := fs.Float64("days", 3, "trace horizon in days (azure)")
	samples := fs.Int("samples", 288, "samples per container (alibaba)")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("o", "-", "output file (- for stdout)")
	fs.Parse(args) // ExitOnError: a bad flag exits here, as flag.Parse did

	write, summary, err := build(*kind, *n, *days, *samples, *seed)
	if err != nil {
		return err
	}
	w := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := write(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: %s\n", summary)
	return nil
}

// build synthesises the requested trace and returns its CSV writer and
// a one-line summary. Bad parameters fail here, before any output file
// is created.
func build(kind string, n int, days float64, samples int, seed int64) (func(io.Writer) error, string, error) {
	if n < 1 {
		return nil, "", fmt.Errorf("-n %d: want at least 1 VM or container", n)
	}
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

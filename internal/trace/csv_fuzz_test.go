package trace

import (
	"bytes"
	"math"
	"strconv"
	"testing"
)

// FuzzReadAzureCSV holds the Azure CSV loader to its contract on
// arbitrary input: it never panics; a trace it returns has every row
// valid and no ID live twice at once; and writing that trace back and
// re-reading it reproduces every field — the utilisation samples at the
// six significant digits WriteAzureCSV keeps.
//
//	go test -run '^$' -fuzz FuzzReadAzureCSV -fuzztime 15s -fuzzminimizetime 200x ./internal/trace
func FuzzReadAzureCSV(f *testing.F) {
	for _, in := range azureCSVMalformed {
		f.Add([]byte(in))
	}
	for _, row := range unholdableRows {
		f.Add([]byte(unholdableHead + row + "\n"))
	}
	// The edge of the 0–100 range: 100 loads, 100.5 does not.
	f.Add([]byte(unholdableHead + "v,interactive,1,1024,0,600,10;100\n"))
	f.Add([]byte(unholdableHead + "v,interactive,1,1024,0,600,10;100.5\n"))
	for _, kind := range Scenarios() {
		tr, err := GenerateScenario(ScenarioConfig{Kind: kind, NumVMs: 12, Duration: 86400, Seed: 1})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteAzureCSV(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadAzureCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, vm := range tr.VMs {
			if err := vm.validate(); err != nil {
				t.Fatalf("row %d loaded but invalid: %v", i, err)
			}
			for j, other := range tr.VMs[:i] {
				if other.ID == vm.ID && liveAtOnce(other, vm) {
					t.Fatalf("rows %d and %d share ID %q and are live at once: [%g, %g) and [%g, %g)",
						j, i, vm.ID, other.Start, other.End, vm.Start, vm.End)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteAzureCSV(&buf, tr); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAzureCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading the written trace: %v", err)
		}
		if len(back.VMs) != len(tr.VMs) {
			t.Fatalf("round trip read %d of %d rows", len(back.VMs), len(tr.VMs))
		}
		for i, want := range tr.VMs {
			got := back.VMs[i]
			if got.ID != want.ID || got.Class != want.Class || got.Cores != want.Cores ||
				got.MemoryMB != want.MemoryMB || got.Start != want.Start || got.End != want.End ||
				len(got.CPUUtil) != len(want.CPUUtil) {
				t.Fatalf("row %d round-tripped to %+v, want %+v", i, *got, *want)
			}
			for k, u := range want.CPUUtil {
				six, _ := strconv.ParseFloat(strconv.FormatFloat(u, 'g', 6, 64), 64)
				if got.CPUUtil[k] != six {
					t.Fatalf("row %d sample %d round-tripped to %g, want %g (from %g)", i, k, got.CPUUtil[k], six, u)
				}
			}
		}
	})
}

// FuzzReadAlibabaCSV holds the Alibaba CSV loader to its contract on
// arbitrary input: it never panics; every sample of a trace it returns
// is a finite non-negative number; and, since WriteAlibabaCSV keeps six
// significant digits, writing the trace, reading that back and writing
// again reproduces the first write byte for byte.
//
//	go test -run '^$' -fuzz FuzzReadAlibabaCSV -fuzztime 15s -fuzzminimizetime 200x ./internal/trace
func FuzzReadAlibabaCSV(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(alibabaGoodHead + "z,0,0;0,,0,0\n"))
	for _, tc := range alibabaBadRows {
		f.Add([]byte(alibabaGoodHead + tc.row + "\n"))
	}
	var buf bytes.Buffer
	if err := WriteAlibabaCSV(&buf, GenerateAlibaba(AlibabaConfig{NumContainers: 6, Samples: 12, Seed: 1})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadAlibabaCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, c := range tr.Containers {
			for _, series := range [][]float64{c.CPUUtil, c.MemUtil, c.MemBWUtil, c.DiskUtil, c.NetUtil} {
				for k, u := range series {
					if math.IsNaN(u) || math.IsInf(u, 0) || u < 0 {
						t.Fatalf("container %d loaded sample %d = %g", i, k, u)
					}
				}
			}
		}
		var first bytes.Buffer
		if err := WriteAlibabaCSV(&first, tr); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAlibabaCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading the written trace: %v", err)
		}
		var second bytes.Buffer
		if err := WriteAlibabaCSV(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write-read-write is not a fixed point:\nfirst  %q\nsecond %q", first.Bytes(), second.Bytes())
		}
	})
}

// liveAtOnce reports whether two lifetimes, each the half-open
// [Start, End), share an instant. A zero-lifetime row is live at none.
func liveAtOnce(a, b *VMRecord) bool {
	return a.Start < a.End && b.Start < b.End && a.Start < b.End && b.Start < a.End
}

package trace

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Azure trace CSV layout: one row per VM,
//
//	id,class,cores,memory_mb,start,end,cpu_util
//
// where cpu_util is a semicolon-joined list of 5-minute samples. A header
// row is written and expected.

var azureHeader = []string{"id", "class", "cores", "memory_mb", "start", "end", "cpu_util"}

// WriteAzureCSV serialises the trace.
func WriteAzureCSV(w io.Writer, t *AzureTrace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(azureHeader); err != nil {
		return err
	}
	for _, vm := range t.VMs {
		row := []string{
			vm.ID,
			vm.Class.String(),
			strconv.Itoa(vm.Cores),
			formatFloat(vm.MemoryMB),
			formatFloat(vm.Start),
			formatFloat(vm.End),
			joinSeries(vm.CPUUtil),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadAzureCSV parses a trace written by WriteAzureCSV. Every row is
// validated (see VMRecord.validate), and so is every pair of rows that
// share an ID (see checkLiveIDs): a file with a row the simulator cannot
// hold returns a line-numbered error, not a trace.
func ReadAzureCSV(r io.Reader) (*AzureTrace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(azureHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading azure header: %w", err)
	}
	if !sliceEqual(header, azureHeader) {
		return nil, fmt.Errorf("trace: unexpected azure header %v", header)
	}
	t := &AzureTrace{}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: azure line %d: %w", line, err)
		}
		class, err := ParseVMClass(row[1])
		if err != nil {
			return nil, fmt.Errorf("trace: azure line %d: %w", line, err)
		}
		cores, err := strconv.Atoi(row[2])
		if err != nil {
			return nil, fmt.Errorf("trace: azure line %d cores: %w", line, err)
		}
		mem, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: azure line %d memory: %w", line, err)
		}
		start, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: azure line %d start: %w", line, err)
		}
		end, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: azure line %d end: %w", line, err)
		}
		util, err := splitSeries(row[6])
		if err != nil {
			return nil, fmt.Errorf("trace: azure line %d util: %w", line, err)
		}
		vm := &VMRecord{
			ID: row[0], Class: class, Cores: cores, MemoryMB: mem,
			Start: start, End: end, CPUUtil: util,
		}
		if err := vm.validate(); err != nil {
			return nil, fmt.Errorf("trace: azure line %d: %w", line, err)
		}
		t.VMs = append(t.VMs, vm)
	}
	if err := checkLiveIDs(t.VMs); err != nil {
		return nil, err
	}
	return t, nil
}

// checkLiveIDs rejects two rows that share an ID and are live at once:
// the cluster manager keys running VMs by ID, so the second would be
// counted as an admission rejection instead of running. Lifetimes are
// half-open, [Start, End): rows that only touch (one ends where the
// next starts) are legal, because departures precede arrivals at one
// instant, and a zero-lifetime row is live at no instant. Row i is
// file line i+2, after the header.
func checkLiveIDs(vms []*VMRecord) error {
	rows := make([]int, 0, len(vms))
	for i, vm := range vms {
		if vm.End > vm.Start {
			rows = append(rows, i)
		}
	}
	slices.SortFunc(rows, func(a, b int) int {
		return cmp.Or(strings.Compare(vms[a].ID, vms[b].ID), cmp.Compare(vms[a].Start, vms[b].Start), cmp.Compare(a, b))
	})
	live := -1 // of the current ID's rows started so far, the one ending last
	for _, i := range rows {
		if live < 0 || vms[i].ID != vms[live].ID {
			live = i
			continue
		}
		if vms[i].Start < vms[live].End {
			a, b := min(live, i), max(live, i)
			return fmt.Errorf("trace: azure line %d: VM %q is live in [%g, %g) and so is line %d's in [%g, %g), but a running VM's ID must be unique",
				b+2, vms[i].ID, vms[b].Start, vms[b].End, a+2, vms[a].Start, vms[a].End)
		}
		if vms[i].End > vms[live].End {
			live = i
		}
	}
	return nil
}

// validate rejects a parsed row a run cannot hold: the simulator sorts
// rows by start, hashes event times into calendar buckets
// (int64(at/width)) and defines a domain of the row's size, so a
// non-finite or negative time, a lifetime that ends before it starts, a
// VM smaller than one core or without memory, or a utilisation sample
// that is not a finite non-negative number would produce a wrong answer
// or a panic instead of an error. So would a sample above 100: the
// series is a percentage of the VM's allocation, and an undeflated VM
// would bill lost throughput and carry an SLO load above its size. A
// zero-lifetime VM (end == start) is legal.
func (r *VMRecord) validate() error {
	switch {
	case !finiteNonNeg(r.Start):
		return fmt.Errorf("start %g is negative or not finite", r.Start)
	case !finiteNonNeg(r.End):
		return fmt.Errorf("end %g is negative or not finite", r.End)
	case r.End < r.Start:
		return fmt.Errorf("end %g precedes start %g", r.End, r.Start)
	case r.Cores < 1:
		return fmt.Errorf("cores %d, want at least 1", r.Cores)
	case !(r.MemoryMB > 0) || math.IsInf(r.MemoryMB, 1):
		return fmt.Errorf("memory %g MB is not a positive finite size", r.MemoryMB)
	}
	if err := checkSamples(r.CPUUtil); err != nil {
		return fmt.Errorf("util %w", err)
	}
	for i, u := range r.CPUUtil {
		if u > 100 {
			return fmt.Errorf("util sample %d is %g, above 100 %%", i, u)
		}
	}
	return nil
}

// finiteNonNeg reports whether x is a finite non-negative number (false
// for NaN).
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// checkSamples rejects a utilisation series holding a sample that is
// not a finite non-negative number: a percentile or mean over it would
// drop or be dragged by the sample instead of failing.
func checkSamples(xs []float64) error {
	for i, u := range xs {
		if !finiteNonNeg(u) {
			return fmt.Errorf("sample %d is %g, negative or not finite", i, u)
		}
	}
	return nil
}

// Alibaba trace CSV layout: one row per container,
//
//	id,cpu,mem,membw,disk,net
//
// with each series semicolon-joined.

var alibabaHeader = []string{"id", "cpu", "mem", "membw", "disk", "net"}

// WriteAlibabaCSV serialises the trace.
func WriteAlibabaCSV(w io.Writer, t *AlibabaTrace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(alibabaHeader); err != nil {
		return err
	}
	for _, c := range t.Containers {
		row := []string{
			c.ID,
			joinSeries(c.CPUUtil),
			joinSeries(c.MemUtil),
			joinSeries(c.MemBWUtil),
			joinSeries(c.DiskUtil),
			joinSeries(c.NetUtil),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadAlibabaCSV parses a trace written by WriteAlibabaCSV. Every sample
// must be a finite non-negative number, the rule VMRecord.validate
// applies to Azure utilisation: a file holding any other returns an
// error naming its line, column and sample index, not a trace.
func ReadAlibabaCSV(r io.Reader) (*AlibabaTrace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(alibabaHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading alibaba header: %w", err)
	}
	if !sliceEqual(header, alibabaHeader) {
		return nil, fmt.Errorf("trace: unexpected alibaba header %v", header)
	}
	t := &AlibabaTrace{}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: alibaba line %d: %w", line, err)
		}
		c := &ContainerRecord{ID: row[0]}
		for i, dst := range []*[]float64{&c.CPUUtil, &c.MemUtil, &c.MemBWUtil, &c.DiskUtil, &c.NetUtil} {
			s, err := splitSeries(row[i+1])
			if err == nil {
				err = checkSamples(s)
			}
			if err != nil {
				return nil, fmt.Errorf("trace: alibaba line %d col %s: %w", line, alibabaHeader[i+1], err)
			}
			*dst = s
		}
		t.Containers = append(t.Containers, c)
	}
	return t, nil
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func joinSeries(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(strconv.FormatFloat(x, 'g', 6, 64))
	}
	return b.String()
}

func splitSeries(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ";")
	out := make([]float64, len(parts))
	for i, p := range parts {
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		out[i] = f
	}
	return out, nil
}

func sliceEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package hypervisor

import (
	"errors"
	"math"
	"testing"
	"unsafe"

	"vmdeflate/internal/guestos"
	"vmdeflate/internal/resources"
)

// The cgroup controllers of a domain: its limits vector. A positive
// component is an engaged controller, zero is none.

func TestDomainLimits(t *testing.T) {
	d := defineRunning(t, testHost(t), "vm", 8, 16384)
	if l := d.limits; l != (resources.Vector{}) {
		t.Errorf("a fresh domain engages %v", l)
	}
	if err := d.SetCPUShares(2.5); err != nil {
		t.Fatal(err)
	}
	if l := d.limits; l != resources.New(2.5, 0, 0, 0) {
		t.Errorf("limits = %v, want only CPU at 2.5", l)
	}
	before := limitStateOf(d)
	for _, v := range []float64{0, -1, math.NaN()} {
		if err := d.SetMemoryLimit(v); !errors.Is(err, ErrInvalid) {
			t.Errorf("memory limit %g: err = %v, want ErrInvalid", v, err)
		}
	}
	if after := limitStateOf(d); after != before {
		t.Errorf("rejected limits moved state: %+v -> %+v", before, after)
	}
}

// TestDomainSetLimitsBatched: the batched write engages exactly the
// controllers the single setters would for each positive component,
// leaves zero components' controllers as they were, and a negative
// component rejects the whole vector without touching any controller.
func TestDomainSetLimitsBatched(t *testing.T) {
	h := testHost(t)
	batched, single := defineRunning(t, h, "batched", 8, 16384), defineRunning(t, h, "single", 8, 16384)
	for _, d := range []*Domain{batched, single} {
		if err := d.SetNetLimit(700); err != nil { // survives a zero component
			t.Fatal(err)
		}
	}
	v := resources.New(2.5, 4096, 50, 0)
	if _, err := batched.SetLimits(v); err != nil {
		t.Fatal(err)
	}
	single.SetCPUShares(2.5)
	single.SetMemoryLimit(4096)
	single.SetDiskLimit(50)
	if got, want := batched.limits, single.limits; got != want {
		t.Errorf("batched limits = %v, single setters = %v", got, want)
	}
	if got := batched.limits; got != resources.New(2.5, 4096, 50, 700) {
		t.Errorf("limits = %v", got)
	}
	before := limitStateOf(batched)
	if _, err := batched.SetLimits(resources.New(1, -1, 10, 10)); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative component err = %v", err)
	}
	if after := limitStateOf(batched); after != before {
		t.Errorf("rejected write moved state: %+v -> %+v", before, after)
	}
	if _, err := defineRunning(t, h, "fresh", 2, 4096).SetLimits(resources.Vector{}); err != nil {
		t.Errorf("all-zero vector err = %v", err)
	}
}

// TestDomainLimitsVector: one engaged controller leaves the other three
// disengaged, and clearing disengages all four.
func TestDomainLimitsVector(t *testing.T) {
	d := defineRunning(t, testHost(t), "vm", 4, 8192)
	d.SetCPUShares(2)
	l := d.limits
	if l[resources.CPU] != 2 {
		t.Errorf("cpu limit = %v", l[resources.CPU])
	}
	for _, k := range []resources.Kind{resources.Memory, resources.DiskBW, resources.NetBW} {
		if l[k] != 0 {
			t.Errorf("%v should be disengaged, got %v", k, l[k])
		}
	}
	d.ClearTransparentLimits()
	if l := d.limits; l != (resources.Vector{}) {
		t.Errorf("after clear, limits = %v", l)
	}
}

// TestDomainEffective: the allocation is the size capped by every
// engaged limit, and a limit above the size does not inflate it.
func TestDomainEffective(t *testing.T) {
	size := resources.New(8, 16384, 100, 1000)
	d, err := testHost(t).Define(DomainConfig{Name: "vm", Size: size})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Allocation(); got != size {
		t.Errorf("unengaged effective = %v", got)
	}
	d.SetCPUShares(4)
	d.SetMemoryLimit(8192)
	if got, want := d.Allocation(), resources.New(4, 8192, 100, 1000); got != want {
		t.Errorf("effective = %v, want %v", got, want)
	}
	d.SetCPUShares(100)
	if got := d.Allocation().Get(resources.CPU); got != 8 {
		t.Errorf("limit above size should not inflate: CPU %v", got)
	}
}

// TestDomainSize pins what a cluster VM costs: no guest, no lock, no
// floor of its own, nothing but its configuration, slot, one-byte state,
// limits and load — the 128 B size class.
func TestDomainSize(t *testing.T) {
	var d Domain
	got := unsafe.Sizeof(d)
	if got > 128 {
		t.Errorf("Domain is %d B, want at most 128", got)
	}
	t.Logf("Domain is %d B", got)
}

// TestRowSize pins the bytes a host's walks read per resident: name,
// size, allocation, priority, domain pointer and three flags, with no
// floor column (every domain's floor is DefaultFloor).
func TestRowSize(t *testing.T) {
	var r row
	got := unsafe.Sizeof(r)
	if got > 104 {
		t.Errorf("row is %d B, want at most 104", got)
	}
	t.Logf("row is %d B", got)
}

// TestReserveIsTheGuestKernels: Validate's memory floor is the guest
// kernel's reserve, so a single-VM experiment can boot a guest beside
// any domain Define accepts.
func TestReserveIsTheGuestKernels(t *testing.T) {
	if reserveMB != guestos.ReserveMB {
		t.Fatalf("hypervisor reserve %d MB, guest kernel reserve %d MB", reserveMB, guestos.ReserveMB)
	}
	var g guestos.GuestOS
	if err := g.Boot(guestos.Config{VCPUs: 1, MemoryMB: reserveMB}); err != nil {
		t.Errorf("a guest of the smallest valid domain does not boot: %v", err)
	}
}

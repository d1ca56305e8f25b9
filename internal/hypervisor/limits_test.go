package hypervisor

import (
	"testing"
	"unsafe"

	"vmdeflate/internal/guestos"
	"vmdeflate/internal/resources"
)

// The cgroup controllers of a domain: its limits vector. A positive
// component is an engaged controller, zero is none.

// TestDomainLimits is a named stream of runDomainOps: one domain's CPU
// share and limit vector rewritten in turn, in which a fresh domain
// engages nothing, a write engages only the controllers it names, and a
// zero CPU share or a negative or NaN component is refused with
// nothing moved.
func TestDomainLimits(t *testing.T) {
	runDomainOps(t, limitRewrites(43, 100), 8)
}

// TestDomainSetLimitsBatched is a named stream of runDomainOps: every
// mutator against one host, with writes of all four controllers in one
// vector, in which a zero component leaves its controller as it was and
// a negative or NaN one refuses the whole vector.
func TestDomainSetLimitsBatched(t *testing.T) {
	runDomainOps(t, mutatorMix(29, 80), 8)
}

// TestDomainLimitsVector is a named stream of runDomainOps: one
// domain's single CPU controller (SetCPUShares) and its four-controller
// writes in turn, each leaving every controller it does not name as it
// was.
func TestDomainLimitsVector(t *testing.T) {
	runDomainOps(t, limitRewrites(41, 100), 8)
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
	// A zero target is a valid one: it clamps to the floor.
	if got, err := d.ClampTarget(resources.Vector{}); err != nil || got != DefaultFloor() {
		t.Errorf("ClampTarget(0) = %v, %v; want the floor %v", got, err, DefaultFloor())
	}
}

// TestDomainSize pins what a cluster VM's handle costs: its host and
// its row slot, nothing else — the 16 B size class.
func TestDomainSize(t *testing.T) {
	var d Domain
	got := unsafe.Sizeof(d)
	if got > 16 {
		t.Errorf("Domain is %d B, want at most 16", got)
	}
	t.Logf("Domain is %d B", got)
}

// TestRowSize pins the bytes a host keeps per resident: name, size,
// allocation, priority, offered load, handle pointer, tag, lifecycle
// state, two flags and the engaged limits, with no floor column (every
// domain's floor is DefaultFloor).
func TestRowSize(t *testing.T) {
	var r row
	got := unsafe.Sizeof(r)
	if got > 144 {
		t.Errorf("row is %d B, want at most 144", got)
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

package pricing

import (
	"math"
	"testing"

	"vmdeflate/internal/resources"
)

func vmSize() resources.Vector { return resources.CPUMem(8, 16384) }

func TestStaticRate(t *testing.T) {
	s := Static{Discount: 0.2}
	// 8 cores at 0.2x: rate 1.6 regardless of allocation or priority.
	if got := s.Rate(vmSize(), 0.5, vmSize()); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("rate = %v, want 1.6", got)
	}
	if got := s.Rate(vmSize(), 0.9, vmSize().Scale(0.25)); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("rate should ignore deflation: %v", got)
	}
}

func TestPriorityRate(t *testing.T) {
	p := Priority{}
	if got := p.Rate(vmSize(), 0.5, vmSize()); math.Abs(got-4.0) > 1e-12 {
		t.Errorf("priority 0.5 on 8 cores = %v, want 4.0", got)
	}
	if got := p.Rate(vmSize(), 1.0, vmSize()); math.Abs(got-8.0) > 1e-12 {
		t.Errorf("priority 1.0 = %v, want on-demand price 8.0", got)
	}
	if got := p.Rate(vmSize(), -1, vmSize()); got != 0 {
		t.Errorf("negative priority clamps to 0: %v", got)
	}
}

func TestAllocationRate(t *testing.T) {
	a := Allocation{Discount: 0.2}
	full := a.Rate(vmSize(), 0.5, vmSize())
	half := a.Rate(vmSize(), 0.5, vmSize().Scale(0.5))
	if math.Abs(full-1.6) > 1e-12 {
		t.Errorf("undeflated allocation rate = %v, want 1.6 (matches static)", full)
	}
	if math.Abs(half-0.8) > 1e-12 {
		t.Errorf("half allocation = %v, want half price 0.8", half)
	}
}

func TestMeterIntegration(t *testing.T) {
	var m Meter
	m.Observe(0, 2.0)  // 2.0/hr for 10h
	m.Observe(10, 1.0) // 1.0/hr for 5h
	got := m.Close(15)
	if math.Abs(got-25) > 1e-9 {
		t.Errorf("revenue = %v, want 25", got)
	}
	if m.Total() != got {
		t.Errorf("Total after close = %v", m.Total())
	}
	// Close is idempotent; further observes are ignored.
	m.Observe(20, 100)
	if math.Abs(m.Close(30)-25) > 1e-9 {
		t.Errorf("meter mutated after close: %v", m.Total())
	}
}

func TestMeterPartialTotal(t *testing.T) {
	var m Meter
	m.Observe(0, 1.0)
	m.Observe(5, 3.0)
	if got := m.Total(); math.Abs(got-5) > 1e-9 {
		t.Errorf("running total = %v, want 5 (second segment not yet closed)", got)
	}
}

package hypervisor

import (
	"errors"
	"testing"
)

// TestSetCapacityResize: capacity moves, the base stays, and derived
// reads see the new capacity.
func TestSetCapacityResize(t *testing.T) {
	h := testHost(t)
	base := h.Capacity()
	if h.cfg.Capacity != base {
		t.Fatalf("configured capacity %v != initial Capacity %v", h.cfg.Capacity, base)
	}
	defineRunning(t, h, "vm1", 4, 8192)

	shrunk := base.Scale(0.5)
	if err := h.SetCapacity(shrunk); err != nil {
		t.Fatal(err)
	}
	if h.Capacity() != shrunk {
		t.Fatalf("Capacity = %v after shrink, want %v", h.Capacity(), shrunk)
	}
	if h.cfg.Capacity != base {
		t.Fatalf("configured capacity changed to %v on resize", h.cfg.Capacity)
	}
	// Available derives from the new capacity.
	wantAvail := shrunk.Sub(h.Allocated()).ClampNonNegative()
	if got := h.Available(); got != wantAvail {
		t.Fatalf("Available = %v, want %v", got, wantAvail)
	}

	// Restore to base.
	if err := h.SetCapacity(base); err != nil {
		t.Fatal(err)
	}
	if h.Capacity() != base {
		t.Fatalf("Capacity = %v after restore, want %v", h.Capacity(), base)
	}
}

// TestSetCapacityValidation rejects degenerate capacities without
// disturbing the current one.
func TestSetCapacityValidation(t *testing.T) {
	h := testHost(t)
	before := h.Capacity()
	for name, c := range badCapacities {
		if err := h.SetCapacity(c); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s capacity %v: err = %v, want ErrInvalid", name, c, err)
		}
		if h.Capacity() != before {
			t.Fatalf("failed %s resize moved capacity to %v", name, h.Capacity())
		}
	}
}

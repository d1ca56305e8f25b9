package cgroups

import (
	"errors"
	"sync"
	"testing"

	"vmdeflate/internal/resources"
)

func TestLimits(t *testing.T) {
	g := &Group{}
	if _, ok := g.Limit(resources.CPU); ok {
		t.Error("no limit should be engaged initially")
	}
	if err := g.SetLimit(resources.CPU, 2.5); err != nil {
		t.Fatal(err)
	}
	v, ok := g.Limit(resources.CPU)
	if !ok || v != 2.5 {
		t.Errorf("Limit = %v, %v", v, ok)
	}
	if err := g.SetLimit(resources.Memory, 0); !errors.Is(err, ErrInvalid) {
		t.Errorf("zero limit err = %v", err)
	}
	if err := g.SetLimit(resources.Memory, -1); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative limit err = %v", err)
	}
}

// TestSetLimitsBatched: the batched write engages exactly the
// controllers the single setter would for each positive component,
// leaves zero components' controllers as they were, and a negative
// component rejects the whole vector without touching any controller.
func TestSetLimitsBatched(t *testing.T) {
	batched, single := &Group{}, &Group{}
	for _, g := range []*Group{batched, single} {
		g.SetLimit(resources.NetBW, 700) // survives a zero component
	}
	v := resources.New(2.5, 4096, 50, 0)
	if err := batched.SetLimits(v); err != nil {
		t.Fatal(err)
	}
	for i, x := range v {
		if x > 0 {
			if err := single.SetLimit(resources.Kind(i), x); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := batched.Limits(), single.Limits(); got != want {
		t.Errorf("batched limits = %v, single setters = %v", got, want)
	}
	if got := batched.Limits(); got != resources.New(2.5, 4096, 50, 700) {
		t.Errorf("limits = %v", got)
	}
	before := batched.Limits()
	if err := batched.SetLimits(resources.New(1, -1, 10, 10)); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative component err = %v", err)
	}
	if got := batched.Limits(); got != before {
		t.Errorf("rejected write moved limits: %v -> %v", before, got)
	}
	if err := (&Group{}).SetLimits(resources.Vector{}); err != nil {
		t.Errorf("all-zero vector err = %v", err)
	}
}

func TestLimitsVector(t *testing.T) {
	g := &Group{}
	g.SetLimit(resources.CPU, 2)
	l := g.Limits()
	if l[resources.CPU] != 2 {
		t.Errorf("cpu limit = %v", l[resources.CPU])
	}
	for _, k := range []resources.Kind{resources.Memory, resources.DiskBW, resources.NetBW} {
		if l[k] != Unlimited {
			t.Errorf("%v should be Unlimited, got %v", k, l[k])
		}
	}
}

func TestEffective(t *testing.T) {
	g := &Group{}
	nominal := resources.New(8, 16384, 100, 1000)
	if got := g.Effective(nominal); got != nominal {
		t.Errorf("unengaged effective = %v", got)
	}
	g.SetLimit(resources.CPU, 4)
	g.SetLimit(resources.Memory, 8192)
	got := g.Effective(nominal)
	want := resources.New(4, 8192, 100, 1000)
	if got != want {
		t.Errorf("effective = %v, want %v", got, want)
	}
	// Limit above nominal does not inflate.
	g.SetLimit(resources.CPU, 100)
	if got := g.Effective(nominal); got.Get(resources.CPU) != 8 {
		t.Errorf("limit above nominal should not inflate: %v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	g := &Group{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				g.SetLimit(resources.CPU, float64(i+1))
				g.Effective(resources.New(8, 8192, 0, 0))
				g.Limits()
				g.SetLimits(resources.New(float64(i+1), 4096, 0, 0))
			}
		}(i)
	}
	wg.Wait()
	if v, ok := g.Limit(resources.CPU); !ok || v < 1 || v > 8 {
		t.Errorf("final limit = %v, %v", v, ok)
	}
}

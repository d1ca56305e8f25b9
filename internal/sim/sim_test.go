package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	for i, at := range []float64{5, 1, 3, 2, 4} {
		i := i
		if _, err := e.At(at, func(float64) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	want := []int{1, 3, 2, 4, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 5 {
		t.Errorf("final time = %v", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, func(float64) { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestSchedulingInPast(t *testing.T) {
	e := NewEngine()
	e.At(10, func(float64) {})
	e.Run()
	if _, err := e.At(5, func(float64) {}); err != ErrPast {
		t.Errorf("want ErrPast, got %v", err)
	}
	if _, err := e.After(-1, func(float64) {}); err != ErrPast {
		t.Errorf("After(-1) want ErrPast, got %v", err)
	}
}

func TestAfter(t *testing.T) {
	e := NewEngine()
	var at float64
	e.At(3, func(now float64) {
		e.After(4, func(now2 float64) { at = now2 })
	})
	e.Run()
	if at != 7 {
		t.Errorf("After fired at %v, want 7", at)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h, _ := e.At(1, func(float64) { fired = true })
	h.Cancel()
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	// Double-cancel and zero-handle cancel are no-ops.
	h.Cancel()
	(Handle{}).Cancel()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		e.At(at, func(now float64) { fired = append(fired, now) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3", e.Now())
	}
	if len(e.queue) != 2 {
		t.Errorf("queued = %d, want 2", len(e.queue))
	}
	e.RunUntil(10)
	if len(fired) != 5 || e.Now() != 10 {
		t.Errorf("after second RunUntil: fired=%d now=%v", len(fired), e.Now())
	}
}

func TestRunUntilSkipsCancelled(t *testing.T) {
	e := NewEngine()
	h, _ := e.At(1, func(float64) { t.Error("cancelled fired") })
	h.Cancel()
	var ok bool
	e.At(2, func(float64) { ok = true })
	e.RunUntil(5)
	if !ok {
		t.Error("live event did not fire")
	}
}

func TestStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty queue should return false")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := NewEngine()
		rng := rand.New(rand.NewSource(42))
		var out []float64
		var spawn func(now float64)
		spawn = func(now float64) {
			out = append(out, now)
			if now < 100 {
				e.After(rng.Float64()*10, spawn)
			}
		}
		e.At(0, spawn)
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: any multiset of event times is executed in sorted order.
func TestQuickSortedExecution(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var fired []float64
		for _, r := range raw {
			at := float64(r)
			e.At(at, func(now float64) { fired = append(fired, now) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Run executes events until the queue is empty. The models run to a
// horizon (RunUntil); the tests drain the queue.
func (e *Engine) Run() {
	for e.Step() {
	}
}

package resources

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestKindString(t *testing.T) {
	cases := map[Kind]string{CPU: "cpu", Memory: "memory", DiskBW: "diskbw", NetBW: "netbw"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown kind should include numeric value, got %q", got)
	}
}

func TestNewAndAccessors(t *testing.T) {
	v := New(4, 8192, 100, 1000)
	if v.Get(CPU) != 4 || v.Get(Memory) != 8192 || v.Get(DiskBW) != 100 || v.Get(NetBW) != 1000 {
		t.Fatalf("accessors wrong: %v", v)
	}
	w := v.With(CPU, 2)
	if w.Get(CPU) != 2 || v.Get(CPU) != 4 {
		t.Error("With must not mutate the receiver")
	}
}

func TestCPUMem(t *testing.T) {
	v := CPUMem(2, 4096)
	if v[CPU] != 2 || v[Memory] != 4096 || v[DiskBW] != 0 || v[NetBW] != 0 {
		t.Errorf("CPUMem = %v", v)
	}
}

func TestArithmetic(t *testing.T) {
	a := New(4, 8192, 100, 1000)
	b := New(1, 1024, 50, 500)
	if got := a.Add(b); got != New(5, 9216, 150, 1500) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != New(3, 7168, 50, 500) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(0.5); got != New(2, 4096, 50, 500) {
		t.Errorf("Scale = %v", got)
	}
}

func TestMinMaxClamp(t *testing.T) {
	a := New(4, 1000, 10, 10)
	b := New(2, 2000, 10, 20)
	if got := a.Min(b); got != New(2, 1000, 10, 10) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != New(4, 2000, 10, 20) {
		t.Errorf("Max = %v", got)
	}
	lo, hi := New(5, 5, 5, 5), New(15, 15, 15, 15)
	if got := New(1, 10, 20, 7).Clamp(lo, hi); got != New(5, 10, 15, 7) {
		t.Errorf("Clamp = %v", got)
	}
}

func TestClampNonNegative(t *testing.T) {
	v := New(-1, 5, -0.5, 0)
	got := v.ClampNonNegative()
	if got != New(0, 5, 0, 0) {
		t.Errorf("ClampNonNegative = %v", got)
	}
}

func TestCheckNonNegative(t *testing.T) {
	if err := New(1, 2, 3, 4).CheckNonNegative(); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
	err := New(1, -2, 3, 4).CheckNonNegative()
	if err == nil {
		t.Fatal("want error for negative memory")
	}
	if !strings.Contains(err.Error(), "memory") {
		t.Errorf("error should identify dimension: %v", err)
	}
}

// TestCheckCapacity: a capacity may lack a resource, but not every one,
// and no component may be negative, NaN or +Inf.
func TestCheckCapacity(t *testing.T) {
	for v, ok := range map[Vector]bool{
		CPUMem(48, 131072):         true,
		New(0, 0, 0, 1):            true,
		{}:                         false,
		CPUMem(-1, 1):              false,
		CPUMem(math.NaN(), 1):      false,
		CPUMem(1, math.Inf(1)):     false,
		New(1, 1, math.Inf(-1), 1): false,
	} {
		if err := v.CheckCapacity(); (err == nil) != ok {
			t.Errorf("CheckCapacity(%v) = %v, want ok %v", v, err, ok)
		}
	}
}

func TestFitsIn(t *testing.T) {
	a := New(2, 1024, 10, 10)
	b := New(4, 2048, 20, 20)
	if !a.FitsIn(b) {
		t.Error("a should fit in b")
	}
	if b.FitsIn(a) {
		t.Error("b should not fit in a")
	}
	// Epsilon tolerance: tiny floating point excess must not reject.
	c := b.Add(New(1e-12, 1e-12, 1e-12, 1e-12))
	if !c.FitsIn(b) {
		t.Error("epsilon excess should still fit")
	}
}

func TestDotNormSum(t *testing.T) {
	a := New(1, 2, 3, 4)
	b := New(4, 3, 2, 1)
	if got := a.Dot(b); got != 4+6+6+4 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Norm(); !almostEqual(got, math.Sqrt(30)) {
		t.Errorf("Norm = %v", got)
	}
	if got := a.Sum(); got != 10 {
		t.Errorf("Sum = %v", got)
	}
}

func TestDominantShare(t *testing.T) {
	use := New(24, 64000, 0, 0)
	total := New(48, 128000, 0, 0)
	if got := use.DominantShare(total); !almostEqual(got, 0.5) {
		t.Errorf("DominantShare = %v", got)
	}
	// CPU dominates.
	use2 := New(36, 32000, 0, 0)
	if got := use2.DominantShare(total); !almostEqual(got, 0.75) {
		t.Errorf("DominantShare = %v", got)
	}
	if got := use.DominantShare(Vector{}); got != 0 {
		t.Errorf("zero total should give 0, got %v", got)
	}
}

func TestCosineFitness(t *testing.T) {
	d := New(2, 4096, 0, 0)
	// Parallel availability = perfect fitness 1.
	if got := CosineFitness(d, d.Scale(10)); !almostEqual(got, 1) {
		t.Errorf("parallel fitness = %v, want 1", got)
	}
	// Orthogonal availability = 0 fitness.
	if got := CosineFitness(New(1, 0, 0, 0), New(0, 1, 0, 0)); !almostEqual(got, 0) {
		t.Errorf("orthogonal fitness = %v, want 0", got)
	}
	// Zero availability must not panic or return NaN (paper's epsilon rule).
	got := CosineFitness(d, Vector{})
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("zero availability fitness = %v", got)
	}
}

func TestCosineFitnessPrefersBalanced(t *testing.T) {
	d := New(2, 4096, 0, 0)
	aligned := New(20, 40960, 0, 0) // same shape
	skewed := New(40, 2048, 0, 0)   // lots of CPU, little memory
	if CosineFitness(d, aligned) <= CosineFitness(d, skewed) {
		t.Error("aligned availability should have higher fitness than skewed")
	}
}

func TestDeflationFraction(t *testing.T) {
	base := New(4, 8192, 100, 1000)
	half := base.Scale(0.5)
	if got := half.DeflationFraction(base); !almostEqual(got, 0.5) {
		t.Errorf("DeflationFraction = %v, want 0.5", got)
	}
	if got := base.DeflationFraction(base); !almostEqual(got, 0) {
		t.Errorf("undeflated fraction = %v, want 0", got)
	}
	if got := base.DeflationFraction(Vector{}); got != 0 {
		t.Errorf("zero base fraction = %v, want 0", got)
	}
}

func TestString(t *testing.T) {
	s := New(2, 4096, 10, 100).String()
	for _, want := range []string{"cpu=2.00", "mem=4096MB", "disk=10.0MB/s", "net=100.0Mb/s"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestIsZero(t *testing.T) {
	if !(Vector{}).IsZero() {
		t.Error("zero vector should be zero")
	}
	if New(0, 0, 0, 1).IsZero() {
		t.Error("non-zero vector should not be zero")
	}
}

// Property: Add and Sub are inverse operations.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(a, b Vector) bool {
		got := a.Add(b).Sub(b)
		for i := range got {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				return true // skip degenerate inputs
			}
			if math.Abs(got[i]-a[i]) > 1e-6*(1+math.Abs(a[i])+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cosine fitness is scale-invariant in both arguments and bounded.
func TestQuickCosineFitnessProperties(t *testing.T) {
	f := func(d, a Vector) bool {
		for i := range d {
			d[i] = math.Abs(math.Mod(d[i], 1e6))
			a[i] = math.Abs(math.Mod(a[i], 1e6))
			if math.IsNaN(d[i]) || math.IsNaN(a[i]) {
				return true
			}
		}
		fit := CosineFitness(d, a)
		if math.IsNaN(fit) || fit < -1e-9 || fit > 1+1e-9 {
			return false
		}
		// Scale invariance (only meaningful when both norms are well away from
		// the epsilon floor).
		if d.Norm() > 1e-3 && a.Norm() > 1e-3 {
			fit2 := CosineFitness(d.Scale(3), a.Scale(7))
			if math.Abs(fit-fit2) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: v.Clamp(lo,hi) is within [lo,hi] whenever lo<=hi.
func TestQuickClampBounds(t *testing.T) {
	f := func(v, lo Vector) bool {
		for i := range lo {
			lo[i] = math.Mod(lo[i], 1e6)
			v[i] = math.Mod(v[i], 1e6)
			if math.IsNaN(lo[i]) || math.IsNaN(v[i]) {
				return true
			}
		}
		hi := lo.Add(New(100, 100, 100, 100))
		c := v.Clamp(lo, hi)
		for i := range c {
			if c[i] < lo[i]-1e-9 || c[i] > hi[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

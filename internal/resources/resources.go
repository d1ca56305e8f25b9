// Package resources defines the multi-dimensional resource vectors used
// throughout the deflation system.
//
// A VM, a server, and a deflation target are all described by the same
// four-dimensional vector: CPU cores, memory (MB), disk bandwidth (MB/s),
// and network bandwidth (Mbit/s). The paper's cluster policies (Section 5)
// treat each dimension independently, while the placement policy (Section
// 5.2) compares whole vectors using cosine similarity.
package resources

import (
	"errors"
	"fmt"
	"math"
)

// Kind identifies one resource dimension.
type Kind int

const (
	// CPU is measured in (fractional) cores.
	CPU Kind = iota
	// Memory is measured in megabytes.
	Memory
	// DiskBW is local disk bandwidth in MB/s.
	DiskBW
	// NetBW is network bandwidth in Mbit/s.
	NetBW
	// NumKinds is the number of resource dimensions.
	NumKinds
)

// Kinds lists every resource dimension in canonical order.
var Kinds = [NumKinds]Kind{CPU, Memory, DiskBW, NetBW}

// String returns the conventional short name of the resource kind.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case Memory:
		return "memory"
	case DiskBW:
		return "diskbw"
	case NetBW:
		return "netbw"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Vector is a point in resource space. The zero value is the empty
// allocation and is ready to use.
type Vector [NumKinds]float64

// ErrNegative reports an operation that would produce a negative allocation.
var ErrNegative = errors.New("resources: negative allocation")

// New builds a vector from explicit components.
func New(cpu, memMB, diskMBps, netMbps float64) Vector {
	return Vector{cpu, memMB, diskMBps, netMbps}
}

// CPUMem builds a vector with only CPU and memory set; disk and network
// are zero. The paper's cluster simulation (Section 7.1.2) bin-packs on
// cores and memory only.
func CPUMem(cpu, memMB float64) Vector {
	return Vector{cpu, memMB, 0, 0}
}

// Get returns the component for kind k.
func (v Vector) Get(k Kind) float64 { return v[k] }

// With returns a copy of v with dimension k replaced by value.
func (v Vector) With(k Kind, value float64) Vector {
	v[k] = value
	return v
}

// Add returns v + o.
func (v Vector) Add(o Vector) Vector {
	for i := range v {
		v[i] += o[i]
	}
	return v
}

// Sub returns v - o. Components may go negative; use Clamp or CheckNonNegative
// if the caller requires a valid allocation.
func (v Vector) Sub(o Vector) Vector {
	for i := range v {
		v[i] -= o[i]
	}
	return v
}

// Scale returns v with every component multiplied by f.
func (v Vector) Scale(f float64) Vector {
	for i := range v {
		v[i] *= f
	}
	return v
}

// Min returns the component-wise minimum.
func (v Vector) Min(o Vector) Vector {
	for i := range v {
		if o[i] < v[i] {
			v[i] = o[i]
		}
	}
	return v
}

// Max returns the component-wise maximum.
func (v Vector) Max(o Vector) Vector {
	for i := range v {
		if o[i] > v[i] {
			v[i] = o[i]
		}
	}
	return v
}

// Clamp limits every component of v into [lo, hi] component-wise.
func (v Vector) Clamp(lo, hi Vector) Vector {
	return v.Max(lo).Min(hi)
}

// ClampNonNegative replaces negative components with zero.
func (v Vector) ClampNonNegative() Vector {
	for i := range v {
		if v[i] < 0 {
			v[i] = 0
		}
	}
	return v
}

// CheckNonNegative returns ErrNegative if any component is negative.
func (v Vector) CheckNonNegative() error {
	for i := range v {
		if v[i] < 0 {
			return fmt.Errorf("%w: %s=%g", ErrNegative, Kind(i), v[i])
		}
	}
	return nil
}

// CheckCapacity rejects a server capacity with a negative, NaN or +Inf
// component, or with every component zero. NaN fails every comparison,
// so a bare `< 0` check lets it through.
func (v Vector) CheckCapacity() error {
	for i, x := range v {
		if !(x >= 0) || math.IsInf(x, 1) {
			return fmt.Errorf("capacity %g on %s is not a finite non-negative amount", x, Kind(i))
		}
	}
	if v.IsZero() {
		return errors.New("capacity is zero on every resource")
	}
	return nil
}

// IsZero reports whether every component is zero.
func (v Vector) IsZero() bool {
	for i := range v {
		if v[i] != 0 {
			return false
		}
	}
	return true
}

// FitTolerance is FitsIn's absolute slack per component.
const FitTolerance = 1e-9

// FitsIn reports whether v <= o in every dimension (with FitTolerance of
// slack so that floating-point round-off from repeated deflate/reinflate
// cycles does not spuriously reject a placement).
func (v Vector) FitsIn(o Vector) bool {
	for i := range v {
		if v[i] > o[i]+FitTolerance {
			return false
		}
	}
	return true
}

// Dot returns the inner product of v and o.
func (v Vector) Dot(o Vector) float64 {
	var s float64
	for i := range v {
		s += v[i] * o[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Sum returns the sum of the components of v.
func (v Vector) Sum() float64 {
	var s float64
	for i := range v {
		s += v[i]
	}
	return s
}

// DominantShare returns the maximum of v[i]/total[i] over all dimensions
// where total[i] > 0. It is the classic dominant-resource share used for
// utilisation accounting.
func (v Vector) DominantShare(total Vector) float64 {
	var m float64
	for i := range v {
		if total[i] <= 0 {
			continue
		}
		if s := v[i] / total[i]; s > m {
			m = s
		}
	}
	return m
}

// CosineFitness computes the placement fitness of Section 5.2:
//
//	fitness(D, A) = (A · D) / (|A| |D|)
//
// where D is the demand vector of a new VM and A is the availability
// vector of a candidate server. If either vector has zero norm, a small
// epsilon is added (per the paper) to avoid division by zero; the
// resulting fitness is ~0, deprioritising the server.
func CosineFitness(demand, avail Vector) float64 {
	const eps = 1e-9
	na, nd := avail.Norm(), demand.Norm()
	if na < eps {
		na = eps
	}
	if nd < eps {
		nd = eps
	}
	return avail.Dot(demand) / (na * nd)
}

// String renders the vector as "cpu=…, mem=…MB, disk=…MB/s, net=…Mb/s".
func (v Vector) String() string {
	return fmt.Sprintf("cpu=%.2f mem=%.0fMB disk=%.1fMB/s net=%.1fMb/s",
		v[CPU], v[Memory], v[DiskBW], v[NetBW])
}

// DeflationFraction returns 1 - v/base averaged over the dimensions where
// base is non-zero: the overall fraction by which v is deflated relative
// to base. Returns 0 for an all-zero base.
func (v Vector) DeflationFraction(base Vector) float64 {
	var sum float64
	var n int
	for i := range v {
		if base[i] <= 0 {
			continue
		}
		sum += 1 - v[i]/base[i]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Package vmdeflate is a cloud-scale VM deflation framework: a Go
// implementation of "Cloud-scale VM Deflation for Running Interactive
// Applications On Transient Servers" (Fuerst, Ali-Eldin, Shenoy, Sharma
// — HPDC 2020).
//
// Deflatable VMs are an alternative to preemptible (spot) instances:
// under resource pressure the provider fractionally reclaims CPU,
// memory and I/O from low-priority VMs instead of killing them, so even
// interactive applications can run on transient capacity. The package
// provides:
//
//   - deflation mechanisms (Section 4): transparent cgroup-style
//     multiplexing, explicit guest-visible hotplug, and the hybrid
//     mechanism that combines them;
//   - server-level deflation policies (Section 5.1): proportional,
//     priority-weighted, and deterministic, all with reinflation;
//   - a deflation-aware cluster manager (Section 5.2): fitness-based
//     placement, priority-partitioned pools, admission control;
//   - deflatable-VM pricing and revenue accounting (Section 5.2.2);
//   - a simulated KVM/cgroups/guest-OS substrate the above run against,
//     plus a trace-driven cluster simulator and synthetic Azure-like and
//     Alibaba-like datasets that reproduce the paper's evaluation
//     (Figures 3-22; see bench_test.go and the claim tests in
//     figures_test.go).
//
// This root package is a facade over the implementation packages in
// internal/; it exposes everything a downstream user needs to build and
// operate simulated deflatable-VM clusters.
package vmdeflate

import (
	"vmdeflate/internal/cluster"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/pricing"
	"vmdeflate/internal/resources"
	"vmdeflate/internal/trace"
)

// --- Resource vectors ---

// Vector is a four-dimensional resource vector: CPU cores, memory (MB),
// disk bandwidth (MB/s) and network bandwidth (Mbit/s).
type Vector = resources.Vector

// Kind identifies one resource dimension.
type Kind = resources.Kind

// Resource dimensions.
const (
	CPU    = resources.CPU
	Memory = resources.Memory
	DiskBW = resources.DiskBW
	NetBW  = resources.NetBW
)

// NewVector builds a resource vector.
func NewVector(cpu, memMB, diskMBps, netMbps float64) Vector {
	return resources.New(cpu, memMB, diskMBps, netMbps)
}

// CPUMem builds a CPU+memory vector (the dimensions cluster bin-packing
// uses).
func CPUMem(cpu, memMB float64) Vector { return resources.CPUMem(cpu, memMB) }

// --- Hypervisor substrate ---

// Host is a simulated KVM server.
type Host = hypervisor.Host

// HostConfig sizes a Host.
type HostConfig = hypervisor.HostConfig

// Domain is a VM resident on a Host.
type Domain = hypervisor.Domain

// DomainConfig describes a VM: size, deflatability, priority, QoS floor.
type DomainConfig = hypervisor.DomainConfig

// NewHost boots a simulated hypervisor with the given capacity.
func NewHost(cfg HostConfig) (*Host, error) { return hypervisor.NewHost(cfg) }

// --- Deflation mechanisms (Section 4) ---

// Mechanism applies absolute allocation targets to a domain.
type Mechanism = mechanism.Mechanism

// The three mechanisms of Section 4.
var (
	// TransparentMechanism deflates through hypervisor multiplexing
	// (cgroup CPU shares, memory limits, I/O throttles); the guest is
	// unaware.
	TransparentMechanism Mechanism = mechanism.Transparent{}
	// ExplicitMechanism deflates through guest-visible hotplug; coarse
	// grained and bounded by guest safety thresholds.
	ExplicitMechanism Mechanism = mechanism.Explicit{}
	// HybridMechanism hot-unplugs to the guest's safety threshold and
	// multiplexes the rest of the way (Figure 13).
	HybridMechanism Mechanism = mechanism.Hybrid{}
)

// MechanismByName resolves "transparent", "explicit" or "hybrid".
func MechanismByName(name string) (Mechanism, error) { return mechanism.ByName(name) }

// DeflateByFraction deflates every dimension of d's nominal size by frac
// using m.
func DeflateByFraction(m Mechanism, d *Domain, frac float64) (Vector, error) {
	return mechanism.DeflateByFraction(m, d, frac)
}

// --- Server-level policies (Section 5.1) ---

// Policy computes per-VM deflation targets to free a requested amount.
type Policy = policy.Policy

// VMState is a policy's view of one deflatable VM.
type VMState = policy.VMState

// The three policies of Section 5.1.
var (
	// ProportionalPolicy implements Equations 1-2.
	ProportionalPolicy Policy = policy.Proportional{}
	// PriorityPolicy implements Equations 3-4.
	PriorityPolicy Policy = policy.Priority{}
	// DeterministicPolicy deflates VMs to pre-specified levels in
	// priority order.
	DeterministicPolicy Policy = policy.Deterministic{}
)

// PolicyByName resolves "proportional", "priority" or "deterministic".
func PolicyByName(name string) (Policy, error) { return policy.ByName(name) }

// PriorityFromP95 derives a deflation priority from a VM's p95 CPU
// utilisation (Section 7.1.2).
func PriorityFromP95(p95 float64, levels int) float64 {
	return policy.PriorityFromP95(p95, levels)
}

// --- Cluster manager (Section 5.2) ---

// Manager is the centralized deflation-aware cluster manager.
type Manager = cluster.Manager

// ClusterConfig configures a Manager.
type ClusterConfig = cluster.Config

// Server is one managed physical server.
type Server = cluster.Server

// NewManager creates a cluster manager.
func NewManager(cfg ClusterConfig) *Manager { return cluster.NewManager(cfg) }

// ErrNoCapacity is the admission-control rejection returned by PlaceVM.
var ErrNoCapacity = cluster.ErrNoCapacity

// --- Pricing (Section 5.2.2) ---

// PricingScheme computes deflatable-VM billing rates.
type PricingScheme = pricing.Scheme

// The three pricing schemes evaluated in Figure 22.
var (
	// StaticPricing bills 0.2x the on-demand price.
	StaticPricing PricingScheme = pricing.Static{Discount: 0.2}
	// PriorityPricing bills proportionally to the VM's priority.
	PriorityPricing PricingScheme = pricing.Priority{}
	// AllocationPricing bills the actual allocation over time.
	AllocationPricing PricingScheme = pricing.Allocation{Discount: 0.2}
)

// --- Traces (Section 3) ---

// AzureTrace is an Azure-like VM trace (CPU utilisation, classes, sizes).
type AzureTrace = trace.AzureTrace

// AlibabaTrace is an Alibaba-like container trace (CPU/mem/IO series).
type AlibabaTrace = trace.AlibabaTrace

// VMRecord is one VM's row in an AzureTrace.
type VMRecord = trace.VMRecord

// GenerateAzureTrace synthesises an Azure-like trace.
func GenerateAzureTrace(cfg trace.AzureConfig) *AzureTrace { return trace.GenerateAzure(cfg) }

// DefaultAzureConfig returns the calibrated generator configuration.
func DefaultAzureConfig() trace.AzureConfig { return trace.DefaultAzureConfig() }

// GenerateAlibabaTrace synthesises an Alibaba-like container trace.
func GenerateAlibabaTrace(cfg trace.AlibabaConfig) *AlibabaTrace { return trace.GenerateAlibaba(cfg) }

// DefaultAlibabaConfig returns the calibrated generator configuration.
func DefaultAlibabaConfig() trace.AlibabaConfig { return trace.DefaultAlibabaConfig() }

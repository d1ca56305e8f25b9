// Package guestos models the guest operating system inside a deflatable
// VM, as needed by the explicit (hotplug) deflation mechanisms of Section
// 4.3: vCPU online/offline with safety constraints, memory hot-unplug in
// coarse blocks bounded by the resident set size, page-cache reclaim, and
// the swap behaviour that makes transparent memory deflation below the
// working set expensive.
//
// The paper's prototype talks to the real guest kernel through the QEMU
// guest agent; this package is the synthetic equivalent, exposing the
// same success/partial-success semantics ("the hot unplug operation is
// allowed to return unfinished", Section 6).
package guestos

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by hotplug operations.
var (
	ErrInvalid = errors.New("guestos: invalid argument")
)

// ReserveMB is the guest kernel's reserved memory: it can never be
// unplugged, and a guest with less memory does not boot.
const ReserveMB = 256

const (
	// memBlockMB is the memory hotplug granularity: the Linux
	// memory-block size on x86.
	memBlockMB = 128
	// minVCPUs is the number of vCPUs that can never be offlined (vCPU0).
	minVCPUs = 1
)

// Config sizes a guest.
type Config struct {
	// VCPUs is the configured (maximum) number of virtual CPUs.
	VCPUs int
	// MemoryMB is the configured (maximum) memory size.
	MemoryMB float64
}

// GuestOS is a simulated guest kernel, booted beside a hypervisor
// domain by the single-VM experiment that runs it; the domain itself
// holds no guest. It is not safe for concurrent use: its caller
// serialises access.
type GuestOS struct {
	cfg Config

	onlineVCPUs int
	pluggedMB   float64

	rssMB   float64 // anonymous working set (heap, stacks)
	cacheMB float64 // reclaimable page cache / buffers

	// swappedMB tracks resident pages the guest had to push to swap
	// because plugged memory dropped below the working set (only happens
	// if the caller forces unplug below RSS, which the safety threshold
	// normally prevents).
	swappedMB float64
}

// Boot (re)initialises g as a freshly booted guest of the given
// configuration, with all configured resources online. RSS starts at a
// minimal kernel footprint; applications grow it via SetWorkload. On
// error g is left untouched.
func (g *GuestOS) Boot(cfg Config) error {
	if cfg.VCPUs < minVCPUs {
		return fmt.Errorf("%w: %d vCPUs < minimum %d", ErrInvalid, cfg.VCPUs, minVCPUs)
	}
	if cfg.MemoryMB < ReserveMB {
		return fmt.Errorf("%w: %g MB memory < reserve %d MB", ErrInvalid, cfg.MemoryMB, ReserveMB)
	}
	*g = GuestOS{
		cfg:         cfg,
		onlineVCPUs: cfg.VCPUs,
		pluggedMB:   cfg.MemoryMB,
		rssMB:       ReserveMB,
	}
	return nil
}

// OnlineVCPUs returns the number of currently online vCPUs.
func (g *GuestOS) OnlineVCPUs() int { return g.onlineVCPUs }

// PluggedMemoryMB returns the currently plugged memory.
func (g *GuestOS) PluggedMemoryMB() float64 { return g.pluggedMB }

// RSSMB returns the guest's resident set size: the paper's hot-unplug
// safety threshold for memory (Section 4.4).
func (g *GuestOS) RSSMB() float64 { return g.rssMB }

// SetWorkload installs an application memory footprint: rss of anonymous
// memory and cache of page cache. The cache is truncated to available
// space; rss beyond plugged memory is swapped.
func (g *GuestOS) SetWorkload(rssMB, cacheMB float64) error {
	if rssMB < 0 || cacheMB < 0 {
		return fmt.Errorf("%w: negative workload", ErrInvalid)
	}
	rssMB += ReserveMB
	g.rssMB = rssMB
	g.swappedMB = 0
	if g.rssMB > g.pluggedMB {
		g.swappedMB = g.rssMB - g.pluggedMB
		g.rssMB = g.pluggedMB
	}
	avail := g.pluggedMB - g.rssMB
	if cacheMB > avail {
		cacheMB = avail
	}
	g.cacheMB = cacheMB
	return nil
}

// UnplugVCPUs offlines up to n vCPUs, never going below minVCPUs. It
// returns the number actually removed, mirroring the partial-success
// semantics of agent-based hotplug.
func (g *GuestOS) UnplugVCPUs(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("%w: negative vCPU count", ErrInvalid)
	}
	removable := g.onlineVCPUs - minVCPUs
	if removable < 0 {
		removable = 0
	}
	if n > removable {
		n = removable
	}
	g.onlineVCPUs -= n
	return n, nil
}

// PlugVCPUs onlines up to n vCPUs, never exceeding the configured count.
// It returns the number actually added.
func (g *GuestOS) PlugVCPUs(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("%w: negative vCPU count", ErrInvalid)
	}
	addable := g.cfg.VCPUs - g.onlineVCPUs
	if n > addable {
		n = addable
	}
	g.onlineVCPUs += n
	return n, nil
}

// SafeUnplugMemoryMB returns the maximum memory that can currently be
// hot-unplugged without swapping: everything above RSS (cache is dropped
// first, then free memory), in whole blocks.
func (g *GuestOS) SafeUnplugMemoryMB() float64 {
	safe := g.pluggedMB - g.rssMB
	if safe < 0 {
		return 0
	}
	return math.Floor(safe/memBlockMB) * memBlockMB
}

// UnplugMemory removes up to mb of memory in whole blocks. Per the safety
// rule of Section 4.4 it never removes memory below the current RSS: if
// the request exceeds the safe amount, it unplugs only what is safe and
// "returns unfinished" with the smaller amount. Page cache is silently
// shrunk as needed (the guest drops clean pages).
func (g *GuestOS) UnplugMemory(mb float64) (float64, error) {
	if mb < 0 {
		return 0, fmt.Errorf("%w: negative memory", ErrInvalid)
	}
	req := math.Floor(mb/memBlockMB) * memBlockMB
	safe := g.SafeUnplugMemoryMB()
	if req > safe {
		req = safe
	}
	g.pluggedMB -= req
	// The guest preferentially surrenders free memory, then drops cache.
	if over := g.rssMB + g.cacheMB - g.pluggedMB; over > 0 {
		g.cacheMB -= over
		if g.cacheMB < 0 {
			g.cacheMB = 0
		}
	}
	return req, nil
}

// PlugMemory adds up to mb of memory in whole blocks, never exceeding the
// configured maximum. Swapped-out working set is transparently brought
// back in first. It returns the amount actually added.
func (g *GuestOS) PlugMemory(mb float64) (float64, error) {
	if mb < 0 {
		return 0, fmt.Errorf("%w: negative memory", ErrInvalid)
	}
	req := math.Floor(mb/memBlockMB) * memBlockMB
	if max := g.cfg.MemoryMB - g.pluggedMB; req > max {
		req = math.Floor(max/memBlockMB) * memBlockMB
	}
	g.pluggedMB += req
	// Swap-in.
	if g.swappedMB > 0 {
		in := math.Min(g.swappedMB, g.pluggedMB-g.rssMB-g.cacheMB)
		if in > 0 {
			g.swappedMB -= in
			g.rssMB += in
		}
	}
	return req, nil
}

// SwapPressure quantifies how far an externally imposed memory limit
// cuts into the guest's resident pages. limitMB is the effective physical
// memory granted by the hypervisor (which may be below the plugged size
// under transparent deflation). The result is the fraction of the RSS
// that does not fit — the input to the performance penalty models.
func (g *GuestOS) SwapPressure(limitMB float64) float64 {
	if limitMB >= g.rssMB || g.rssMB <= 0 {
		return 0
	}
	p := (g.rssMB - limitMB) / g.rssMB
	if p > 1 {
		p = 1
	}
	return p
}

// CacheLoss returns the fraction of the guest's page cache lost under an
// externally imposed memory limit: cache is evicted before resident pages
// when the limit is between RSS and RSS+cache.
func (g *GuestOS) CacheLoss(limitMB float64) float64 {
	if g.cacheMB <= 0 {
		return 0
	}
	have := limitMB - g.rssMB
	if have >= g.cacheMB {
		return 0
	}
	if have < 0 {
		have = 0
	}
	return (g.cacheMB - have) / g.cacheMB
}

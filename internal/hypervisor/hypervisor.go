// Package hypervisor simulates the KVM/libvirt substrate the paper's
// prototype is built on (Section 6): domains (VMs) with lifecycle
// management, vCPU-to-pCPU multiplexing through cgroup CPU bandwidth
// control, dynamic memory limits, and disk and network throttles.
//
// The exported API mirrors the slice of libvirt the paper uses for
// transparent deflation (Section 4.2): define/start/shutdown/undefine,
// SetCPUShares and the batched SetLimits (cgroup limits on CPU, memory,
// disk and network, for one domain or for a batch of a host's domains).
// A Domain's Allocation() vector — its nominal size capped by every
// engaged limit — is the single point of truth consumed by the policies
// and the performance models. A domain is its row in the host's table
// and its engaged limits, nothing more: it carries no guest OS. The
// explicit (hotplug) deflation of Section 4.3 and the guest's swap and
// cache-loss reads belong to the single-VM experiments of Figures 3, 13
// and 14, which boot a guestos.GuestOS beside the domain (package apps)
// and cap the limits they write by what it has online and plugged
// (package mechanism).
//
// # Lock model
//
// One mutex per Host, Host.mu, guards the host and every mutable field
// of every domain resident on it: lifecycle state, cgroup limits and
// the host's row table — the per-resident
// accounting columns (size, floor, priority, allocation, running,
// deflatable) that the aggregate and view walks read as contiguous
// host-owned memory. A Domain has no lock of its own; its mutators take
// its host's lock, write the resident's row at mutation time and
// invalidate the cached aggregates, and OnAggregateChange callbacks
// always run under that lock. Host.mu is a leaf: nothing in this package
// takes another lock under it. Three things are read outside it:
// Capacity(), an atomic load; the offered load, a per-domain atomic that
// moves no aggregate; and AllocEpoch(), the host's allocation epoch,
// written only under the lock by the allocation writes it counts.
//
// A limit write (Host.SetLimits) is the only allocation write after
// Define. It is one critical section however many domains it covers,
// and bumps the epoch and invalidates at most once. Domain.SetLimits and
// SetCPUShares are its one-element case.
package hypervisor

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// Errors returned by the hypervisor.
var (
	ErrExists   = errors.New("hypervisor: domain already exists")
	ErrNotFound = errors.New("hypervisor: domain not found")
	ErrState    = errors.New("hypervisor: invalid domain state")
	ErrInvalid  = errors.New("hypervisor: invalid configuration")
)

// DomainState is the lifecycle state of a domain. One byte, so it packs
// beside the domain's row slot.
type DomainState uint8

const (
	// Defined means the domain exists but is not running.
	Defined DomainState = iota
	// Running means the domain is executing.
	Running
	// Shutoff means the domain was stopped but remains defined.
	Shutoff
)

// String names the state like `virsh list` would.
func (s DomainState) String() string {
	switch s {
	case Defined:
		return "defined"
	case Running:
		return "running"
	case Shutoff:
		return "shut off"
	default:
		return fmt.Sprintf("DomainState(%d)", int(s))
	}
}

// HostConfig describes a physical server.
type HostConfig struct {
	// Name identifies the host.
	Name string
	// Capacity is the host's physical resources.
	Capacity resources.Vector
}

// reserveMB is the smallest memory size a domain is defined with: the
// guest kernel's reserve (guestos.ReserveMB), below which no guest
// boots, so a single-VM experiment can boot one beside any valid domain.
const reserveMB = 256

// DefaultFloor is the mechanism-level minimum viable allocation: 1/20th
// of a core and 64 MB, per the paper's observation that even a 0.05-CPU
// microservice container keeps running. It is the deflation floor for
// domains that configure no explicit MinAllocation, and the per-dimension
// safety floor the mechanisms enforce on any target.
func DefaultFloor() resources.Vector {
	return resources.New(0.05, 64, 0, 0)
}

// DomainConfig describes a VM to be defined.
type DomainConfig struct {
	// Name identifies the domain on its host.
	Name string
	// Size is the nominal (undeflated) allocation M_i.
	Size resources.Vector
	// Deflatable marks low-priority VMs whose resources may be reclaimed.
	Deflatable bool
	// Tag is an opaque caller handle. Nothing in this package or in the
	// cluster manager reads it; Config returns it with the rest, so the
	// displaced configurations of cluster.Evacuation.VMs carry it back
	// and a caller can resolve an evacuee without hashing its name (the
	// simulator stores the VM's trace row). It sits in the padding after
	// Deflatable: a Domain is no larger for it.
	Tag int32
	// Priority pi in (0,1] — higher priority means lower deflation
	// tolerance (Section 5.1.2). Validate admits [0, 1] and rejects NaN.
	// Ignored for non-deflatable VMs.
	Priority float64
	// MinAllocation m_i is an optional QoS floor per Section 5.1.1
	// equation (2). Zero means no floor.
	MinAllocation resources.Vector
	// Load is the domain's initial offered request load in cores
	// (core-seconds of CPU demand per second). It seeds the live value
	// maintained by SetOfferedLoad, so a VM admitted — or evacuated to a
	// new server — under load is visible to latency-aware policies from
	// its first policy pass.
	Load float64
}

// Validate reports, wrapping ErrInvalid, a configuration Define would
// refuse: an empty name; a CPU size below one core or not finite; a
// memory size below the guest kernel's reserve (reserveMB) or not
// finite; a negative size or floor component; a floor above the size; a
// deflatable priority outside [0, 1]; or a negative or non-finite load.
// A guest sized like a valid domain always boots.
func (c *DomainConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("%w: empty domain name", ErrInvalid)
	}
	if cpu := c.Size.Get(resources.CPU); !(cpu >= 1) || math.IsInf(cpu, 1) {
		return fmt.Errorf("%w: domain %s CPU size %g is not a finite count of at least 1 core", ErrInvalid, c.Name, cpu)
	}
	if mem := c.Size.Get(resources.Memory); !(mem >= reserveMB) || math.IsInf(mem, 1) {
		return fmt.Errorf("%w: domain %s memory size %g MB is not finite or below the guest kernel's %d MB reserve",
			ErrInvalid, c.Name, mem, reserveMB)
	}
	if err := c.Size.CheckNonNegative(); err != nil {
		return fmt.Errorf("%w: domain %s size: %w", ErrInvalid, c.Name, err)
	}
	if err := c.MinAllocation.CheckNonNegative(); err != nil {
		return fmt.Errorf("%w: domain %s min allocation: %w", ErrInvalid, c.Name, err)
	}
	if !c.MinAllocation.FitsIn(c.Size) {
		return fmt.Errorf("%w: domain %s min allocation exceeds size", ErrInvalid, c.Name)
	}
	if c.Deflatable && !(c.Priority >= 0 && c.Priority <= 1) { // also catches NaN
		return fmt.Errorf("%w: domain %s priority %g outside [0, 1]", ErrInvalid, c.Name, c.Priority)
	}
	if c.Load < 0 || math.IsNaN(c.Load) || math.IsInf(c.Load, 0) {
		return fmt.Errorf("%w: domain %s offered load %g is negative or not finite", ErrInvalid, c.Name, c.Load)
	}
	return nil
}

// Floor returns the configuration's deflation floor: the configured
// MinAllocation (the QoS floor m_i of equation (2)), or DefaultFloor
// capped by the nominal size when none is set.
func (c DomainConfig) Floor() resources.Vector {
	if !c.MinAllocation.IsZero() {
		return c.MinAllocation
	}
	return DefaultFloor().Min(c.Size)
}

// Aggregates is the host's resource accounting, maintained as a cache so
// that reading it is O(1) between mutations instead of a walk over every
// domain. The cached value is always bit-for-bit identical to a fresh
// name-order recomputation (the recompute itself iterates domains sorted
// by name), so consumers that depend on PR 1's float-summation
// determinism invariant can use it freely.
type Aggregates struct {
	// Committed is the sum of nominal sizes of all defined domains: the
	// numerator of the cluster overcommitment ratio (Section 1).
	Committed resources.Vector
	// Allocated is the sum of current (possibly deflated) allocations of
	// running domains: physical resources actually promised right now.
	Allocated resources.Vector
	// DeflatableReserve is the total resource reclaimable from running
	// deflatable domains: sum of (allocation - floor), clamped at zero —
	// the deflatable_j term of the paper's availability vector.
	DeflatableReserve resources.Vector
	// Running counts running domains; Deflated counts running deflatable
	// domains currently below their nominal size (DeflationFraction > 0).
	Running  int
	Deflated int
}

// row is one resident's accounting state as the host's walks read it:
// the immutable columns copied from the configuration at Define, and the
// mutable ones (allocation, running) written by the Domain mutators at
// mutation time. Rows live in Host.rows, so a walk touches contiguous
// host-owned memory, takes no further lock and dereferences no Domain.
type row struct {
	name     string
	size     resources.Vector // cfg.Size
	floor    resources.Vector // cfg.Floor()
	alloc    resources.Vector // current allocation (see Domain.derive)
	priority float64
	dom      *Domain
	// deflated is alloc.DeflationFraction(size) > 0 — the Aggregates.Deflated
	// predicate, evaluated when alloc is written instead of at every visit.
	deflated   bool
	running    bool
	deflatable bool
}

// Host is one simulated physical server running a KVM hypervisor. It
// owns its residents' accounting state: mu guards every field below it
// and every mutable field of the host's domains (see the package
// comment for the lock model).
type Host struct {
	cfg HostConfig
	// capacity is the host's current physical capacity. It starts at
	// cfg.Capacity and moves only through SetCapacity (the transient
	// server shrank or was restored); an atomic pointer to an immutable
	// vector keeps the hot-path Capacity() reads lock-free.
	capacity atomic.Pointer[resources.Vector]

	mu sync.Mutex
	// rows is the row table: one slot per resident, stable for the
	// resident's lifetime (Domain.slot), recycled through free after
	// Undefine. order holds the live slots sorted by resident name; it is
	// also the name index (findLocked binary-searches it). Keeping it
	// materialised makes the walks below iterate in a fixed order, which
	// keeps float summations like Allocated() bit-for-bit reproducible —
	// map iteration order would perturb the low bits run to run and break
	// the simulator's determinism guarantee.
	rows  []row
	free  []int32
	order []int32

	// agg caches the aggregates; clean says the cache is current.
	// Aggregates, free share and the index keys the cluster layer derives
	// from them depend on lifecycle, allocation and capacity only: every
	// mutation that can move one of those three clears clean
	// (invalidateLocked), and the next Aggregates() read re-derives agg
	// by one name-order walk over the rows. A fresh host is clean: the
	// zero Aggregates is what an empty host has.
	clean bool
	agg   Aggregates

	// onChange, when set, is called on every clean-to-stale edge, with mu
	// held: implementations must only record dirtiness (e.g. queue the
	// host in a dirty list) and never call back into Host or Domain
	// methods.
	onChange func()

	// epoch is the allocation epoch (see AllocEpoch), bumped under mu by
	// SetLimits.
	epoch atomic.Uint64
}

// NewHost boots a hypervisor on a server with the given capacity.
func NewHost(cfg HostConfig) (*Host, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: empty host name", ErrInvalid)
	}
	if err := checkCapacity(cfg.Name, cfg.Capacity); err != nil {
		return nil, err
	}
	h := &Host{
		cfg:   cfg,
		clean: true,
	}
	c := cfg.Capacity
	h.capacity.Store(&c)
	return h, nil
}

// checkCapacity rejects a host capacity that is empty or has a
// negative, NaN or +Inf component. NaN fails every comparison, so a bare
// `< 0` check lets it through into the aggregates and index keys.
func checkCapacity(host string, v resources.Vector) error {
	for _, k := range resources.Kinds {
		if x := v.Get(k); !(x >= 0) || math.IsInf(x, 1) {
			return fmt.Errorf("%w: host %s capacity %v=%g is not a finite non-negative amount", ErrInvalid, host, k, x)
		}
	}
	if v.IsZero() {
		return fmt.Errorf("%w: host %s has no capacity", ErrInvalid, host)
	}
	return nil
}

// Name returns the host's name.
func (h *Host) Name() string { return h.cfg.Name }

// Capacity returns the host's current physical resources (the base
// capacity, unless SetCapacity resized the server).
func (h *Host) Capacity() resources.Vector { return *h.capacity.Load() }

// AllocEpoch returns the host's allocation epoch, a lock-free load. It
// moves once per limit write call that moves an allocation (however many
// domains the call covers), and on nothing else, so
// an allocation read with it (Domain.AllocationEpoch) is current for as
// long as the epoch is unchanged.
func (h *Host) AllocEpoch() uint64 { return h.epoch.Load() }

// SetCapacity resizes the host's physical capacity in place — the
// transient-server shrink/restore of a provider reclaiming (or
// returning) part of the machine. It follows the same dirty-flag
// discipline as every other mutation: the aggregate cache is
// invalidated and the registered aggregate-change callback fires, so a
// cluster manager's capacity index re-keys the server on its next
// query. The hypervisor itself does not shrink domains; fitting the
// residents into the new capacity is the cluster layer's job
// (deflation-first, then evacuation).
func (h *Host) SetCapacity(v resources.Vector) error {
	if err := checkCapacity(h.cfg.Name, v); err != nil {
		return err
	}
	h.mu.Lock()
	h.capacity.Store(&v)
	h.invalidateLocked()
	h.mu.Unlock()
	return nil
}

// OnAggregateChange registers fn to be called when a mutation (any
// define/undefine, lifecycle transition, limit change or capacity
// resize — never an offered-load write, which moves no
// aggregate) invalidates the host's clean aggregate cache.
// Notifications are edge-triggered: while the cache is already stale
// further mutations are coalesced into the pending notification, and
// the next Aggregates() read re-arms the edge — exactly the contract a
// dirty-set consumer needs, at one callback per dirty episode instead of
// one per mutation. The callback always runs with the host's lock held,
// so it must only record dirtiness — typically queueing the host in a
// cluster-level dirty list — and must not call back into Host or Domain
// methods. Passing nil unregisters.
func (h *Host) OnAggregateChange(fn func()) {
	h.mu.Lock()
	h.onChange = fn
	h.mu.Unlock()
}

// invalidateLocked flags the aggregate cache stale and, on the
// clean-to-stale edge, notifies the registered callback. The edge
// trigger is sound for dirty-set consumers: a skipped notification means
// the cache has been continuously stale since the last notification, so
// the consumer's dirty mark is still pending (the mark is only consumed
// together with the Aggregates() read that re-arms the edge). Called
// with mu held.
func (h *Host) invalidateLocked() {
	if !h.clean {
		return // already stale: notification still pending downstream
	}
	h.clean = false
	if h.onChange != nil {
		h.onChange()
	}
}

// Aggregates returns the host's cached resource aggregates, recomputing
// them (one name-order walk) only if a mutation happened since the last
// read. Between mutations this is O(1), which is what makes per-arrival
// cluster scans affordable at scale.
func (h *Host) Aggregates() Aggregates {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.clean {
		h.refreshLocked()
	}
	return h.agg
}

// refreshLocked re-derives the aggregates by one name-order walk over
// the row table — the fixed iteration order that keeps the float
// summations reproducible. The sums are spelled out per dimension: the
// same float operations in the same order as Vector.Add and
// Add(Sub(floor).ClampNonNegative()), without the by-value vector
// copies, which cost more than the arithmetic. Called with mu held.
func (h *Host) refreshLocked() {
	var a Aggregates
	rows := h.rows
	for _, slot := range h.order {
		r := &rows[slot]
		for k, v := range r.size {
			a.Committed[k] += v
		}
		if !r.running {
			continue
		}
		a.Running++
		for k, v := range r.alloc {
			a.Allocated[k] += v
		}
		if !r.deflatable {
			continue
		}
		for k, v := range r.alloc {
			v -= r.floor[k]
			if v < 0 {
				v = 0
			}
			a.DeflatableReserve[k] += v
		}
		if r.deflated {
			a.Deflated++
		}
	}
	h.agg = a
	h.clean = true
}

// AppendDeflatableView appends the host's policy view of its running
// deflatable domains — one policy.VMState plus the matching *Domain per
// VM, in name order — to states and domains, and returns the extended
// slices. It is one walk over the row table under the host's lock
// followed by one lock-free load read per appended domain: the Load
// column is read through from the domains' live offered loads, which is
// why SetOfferedLoad invalidates nothing. Callers own the destination
// slices; passing buffers they reuse across passes makes the whole read
// allocation-free.
//
// The appended states are a snapshot: a subsequent mutation or load
// write shows in the next read, but touches no slice already handed out,
// exactly like Aggregates().
func (h *Host) AppendDeflatableView(states []policy.VMState, domains []*Domain) ([]policy.VMState, []*Domain) {
	sbase, dbase := len(states), len(domains)
	h.mu.Lock()
	rows := h.rows
	for _, slot := range h.order {
		r := &rows[slot]
		if !r.running || !r.deflatable {
			continue
		}
		states = append(states, policy.VMState{})
		st := &states[len(states)-1]
		st.Name, st.Max, st.Min, st.Priority, st.Current = r.name, r.size, r.floor, r.priority, r.alloc
		domains = append(domains, r.dom)
	}
	h.mu.Unlock()
	for i, d := range domains[dbase:] {
		states[sbase+i].Load = d.OfferedLoad()
	}
	return states, domains
}

// findLocked returns the position in order of the first resident whose
// name is >= name, and that resident's domain if it is named name (nil
// otherwise).
func (h *Host) findLocked(name string) (int, *Domain) {
	i := sort.Search(len(h.order), func(i int) bool { return h.rows[h.order[i]].name >= name })
	if i < len(h.order) {
		if r := &h.rows[h.order[i]]; r.name == name {
			return i, r.dom
		}
	}
	return i, nil
}

// Define creates a domain. Defining does not reserve physical resources:
// like a real IaaS hypervisor, the host permits overcommitment, which is
// exactly what deflation exists to manage. The domain is one allocation
// with no controller engaged, and its accounting row
// takes a recycled slot of the host's row table.
func (h *Host) Define(cfg DomainConfig) (*Domain, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i, dup := h.findLocked(cfg.Name)
	if dup != nil {
		return nil, fmt.Errorf("%w: %s", ErrExists, cfg.Name)
	}
	d := &Domain{
		host:  h,
		cfg:   cfg,
		floor: cfg.Floor(),
		state: Defined,
	}
	d.load.Store(math.Float64bits(cfg.Load))
	if n := len(h.free); n > 0 {
		d.slot, h.free = h.free[n-1], h.free[:n-1]
	} else {
		d.slot = int32(len(h.rows))
		h.rows = append(h.rows, row{})
	}
	h.rows[d.slot] = row{
		name:       cfg.Name,
		size:       cfg.Size,
		floor:      d.floor,
		priority:   cfg.Priority,
		dom:        d,
		deflatable: cfg.Deflatable,
	}
	h.rows[d.slot].setAlloc(d.derive())
	h.order = append(h.order, 0)
	copy(h.order[i+1:], h.order[i:])
	h.order[i] = d.slot
	h.invalidateLocked()
	return d, nil
}

// Lookup finds a domain by name.
func (h *Host) Lookup(name string) (*Domain, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, d := h.findLocked(name); d != nil {
		return d, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
}

// Domains lists domains sorted by name.
func (h *Host) Domains() []*Domain {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Domain, len(h.order))
	for i, slot := range h.order {
		out[i] = h.rows[slot].dom
	}
	return out
}

// Undefine removes a stopped domain from the host. Its row slot returns
// to the free list; the Domain value stays readable (it answers from its
// own limits) but no longer belongs to any host walk.
func (h *Host) Undefine(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	i, d := h.findLocked(name)
	if d == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if d.state == Running {
		return fmt.Errorf("%w: cannot undefine running domain %s", ErrState, name)
	}
	h.order = append(h.order[:i], h.order[i+1:]...)
	h.rows[d.slot] = row{}
	h.free = append(h.free, d.slot)
	d.slot = -1
	h.invalidateLocked()
	return nil
}

// Allocated returns the sum of the current (possibly deflated) allocations
// of running domains: physical resources actually promised right now.
// Served from the aggregate cache; the underlying summation is always in
// name order so the low bits are reproducible.
func (h *Host) Allocated() resources.Vector {
	return h.Aggregates().Allocated
}

// Domain is one VM resident on a Host: its configuration, its row slot,
// its lifecycle state, its engaged cgroup limits and its offered load,
// in a single allocation. It has no lock of its own: every mutable field
// below is guarded by the host's mu, and the one mutation that can move
// the allocation, a limit write, writes the resident's row in the host's
// table at mutation time (the limits are never driven from outside).
type Domain struct {
	host *Host
	cfg  DomainConfig
	// floor is cfg.Floor(), derived once at Define: the configuration is
	// immutable, and the policies read the floor of every resident on
	// every pass.
	floor resources.Vector

	// slot indexes the domain's row in host.rows; -1 once undefined.
	slot  int32
	state DomainState
	// limits holds the engaged cgroup controllers, one per resource kind:
	// a positive component is the controller's limit, zero means the
	// controller is not engaged (no write engages one at zero or below).
	limits resources.Vector

	// load is the offered request load (cores) last reported through
	// SetOfferedLoad, seeded from DomainConfig.Load, stored as its
	// Float64bits so the sample pass's writes and the view's read-through
	// need no lock.
	load atomic.Uint64
}

// setAlloc writes the row's allocation column and the Deflated predicate
// that depends on it.
func (r *row) setAlloc(v resources.Vector) {
	r.alloc = v
	r.deflated = v.DeflationFraction(r.size) > 0
}

// derive computes the domain's allocation from first principles: the
// nominal size capped by every engaged cgroup limit. Called with the
// host's mu held.
func (d *Domain) derive() resources.Vector {
	a := d.cfg.Size
	for k, l := range d.limits {
		if l > 0 && l < a[k] {
			a[k] = l
		}
	}
	return a
}

// allocLocked reads the allocation column (an undefined domain has no
// row and answers from its own state). Called with the host's mu held.
func (d *Domain) allocLocked() resources.Vector {
	if d.slot < 0 {
		return d.derive()
	}
	return d.host.rows[d.slot].alloc
}

// setStateLocked moves the lifecycle state, mirrors it into the row's
// running column and invalidates. Called with the host's mu held.
func (d *Domain) setStateLocked(s DomainState) {
	d.state = s
	if d.slot >= 0 {
		d.host.rows[d.slot].running = s == Running
	}
	d.host.invalidateLocked()
}

// Name returns the domain name.
func (d *Domain) Name() string { return d.cfg.Name }

// Config returns the domain's configuration.
func (d *Domain) Config() DomainConfig { return d.cfg }

// Host returns the host the domain resides on.
func (d *Domain) Host() *Host { return d.host }

// State returns the domain's lifecycle state.
func (d *Domain) State() DomainState {
	d.host.mu.Lock()
	defer d.host.mu.Unlock()
	return d.state
}

// Start transitions Defined/Shutoff -> Running.
func (d *Domain) Start() error {
	d.host.mu.Lock()
	defer d.host.mu.Unlock()
	if d.state == Running {
		return fmt.Errorf("%w: %s already running", ErrState, d.cfg.Name)
	}
	d.setStateLocked(Running)
	return nil
}

// Shutdown transitions Running -> Shutoff.
func (d *Domain) Shutdown() error {
	d.host.mu.Lock()
	defer d.host.mu.Unlock()
	if d.state != Running {
		return fmt.Errorf("%w: %s not running", ErrState, d.cfg.Name)
	}
	d.setStateLocked(Shutoff)
	return nil
}

// MaxSize returns the nominal undeflated allocation M_i.
func (d *Domain) MaxSize() resources.Vector { return d.cfg.Size }

// Floor returns the domain's deflation floor: its configured minimum
// allocation, or DefaultFloor capped by the nominal size when none is
// set. This is the single definition shared by the cluster policies and
// the host's deflatable-reserve aggregate; it is computed at Define and
// only read here.
func (d *Domain) Floor() resources.Vector { return d.floor }

// Deflatable reports whether the domain may be deflated.
func (d *Domain) Deflatable() bool { return d.cfg.Deflatable }

// Priority returns pi (0 for non-deflatable domains).
func (d *Domain) Priority() float64 { return d.cfg.Priority }

// Allocation returns the domain's current allocation: the nominal size
// capped by its engaged cgroup limits. This is the vector the cluster
// policies account against. It is a read of the domain's row under the
// host's lock; the row is written by the limit write that last moved the
// allocation.
func (d *Domain) Allocation() resources.Vector {
	d.host.mu.Lock()
	defer d.host.mu.Unlock()
	return d.allocLocked()
}

// AllocationEpoch returns the domain's allocation and its host's
// allocation epoch, read under one hold of the host's lock.
func (d *Domain) AllocationEpoch() (resources.Vector, uint64) {
	d.host.mu.Lock()
	defer d.host.mu.Unlock()
	return d.allocLocked(), d.host.epoch.Load()
}

// OfferedLoad returns the domain's current offered request load (cores).
func (d *Domain) OfferedLoad() float64 {
	return math.Float64frombits(d.load.Load())
}

// SetOfferedLoad reports the domain's current offered request load in
// cores (core-seconds of demand per second), as metered by whatever is
// watching the VM's request stream. Latency-aware policies read it from
// the host's deflatable view. Negative and non-finite (NaN, ±Inf) values
// clamp to zero. A load moves no aggregate, no free share and no index
// key, so the write is one atomic store: it takes no lock, does not
// invalidate the host's cache, fires no OnAggregateChange edge, and the
// next AppendDeflatableView reads the new value through.
func (d *Domain) SetOfferedLoad(v float64) {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	d.load.Store(math.Float64bits(v))
}

// --- Transparent deflation knobs (cgroup-backed, Section 4.2) ---

// ClampTarget bounds target into [MinAllocation, MaxSize] with at least
// DefaultFloor's CPU and memory, so the VM never fully stalls
// (deflation, not preemption), rejecting a negative or NaN component
// (ErrInvalid). It is the one clamp the mechanisms and the cluster's
// policy passes apply before a limit write; it takes no lock.
func (d *Domain) ClampTarget(target resources.Vector) (resources.Vector, error) {
	for k, x := range target {
		if !(x >= 0) { // also catches NaN
			return resources.Vector{}, fmt.Errorf("%w: domain %s target %s=%g is negative or NaN", ErrInvalid, d.cfg.Name, resources.Kind(k), x)
		}
	}
	t := target.Clamp(d.cfg.MinAllocation, d.cfg.Size)
	floor := DefaultFloor()
	for _, k := range [...]resources.Kind{resources.CPU, resources.Memory} {
		if t[k] < floor[k] {
			t[k] = floor[k]
		}
	}
	return t.Min(d.cfg.Size), nil
}

// SetLimits writes a policy pass's limits to the host's domains in one
// critical section. In batch order, every positive component of
// limits[i] engages doms[i]'s cgroup controller at that value (zero ones
// leave theirs as they are), and limits[i] is replaced by the allocation
// doms[i] ends up with. A domain of another host, a length mismatch or a
// negative or NaN component anywhere refuses the whole batch (ErrInvalid)
// before anything is written. If any write moved an allocation, the
// allocation epoch moves by exactly one and the aggregates are
// invalidated once; otherwise neither is touched.
func (h *Host) SetLimits(doms []*Domain, limits []resources.Vector) error {
	if len(doms) != len(limits) {
		return fmt.Errorf("%w: host %s limit write of %d domains with %d limit vectors", ErrInvalid, h.cfg.Name, len(doms), len(limits))
	}
	for i, d := range doms {
		if d.host != h {
			return fmt.Errorf("%w: domain %s is not on host %s", ErrInvalid, d.cfg.Name, h.cfg.Name)
		}
		for k, x := range limits[i] {
			if !(x >= 0) { // also catches NaN
				return fmt.Errorf("%w: domain %s %s limit %g", ErrInvalid, d.cfg.Name, resources.Kind(k), x)
			}
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	moved := false
	for i, d := range doms {
		old := d.allocLocked()
		for k, x := range limits[i] {
			if x > 0 {
				d.limits[k] = x
			}
		}
		a := d.derive()
		if a != old {
			if d.slot >= 0 {
				h.rows[d.slot].setAlloc(a)
			}
			moved = true
		}
		limits[i] = a
	}
	if moved {
		h.epoch.Add(1)
		h.invalidateLocked()
	}
	return nil
}

// SetLimits is Host.SetLimits on this one domain; it returns the
// allocation the domain ends up with.
func (d *Domain) SetLimits(limits resources.Vector) (resources.Vector, error) {
	doms, v := [1]*Domain{d}, [1]resources.Vector{limits}
	if err := d.host.SetLimits(doms[:], v[:]); err != nil {
		return resources.Vector{}, err
	}
	return v[0], nil
}

// setLimit engages the one cgroup controller k at v through SetLimits.
// A zero, negative or NaN limit is rejected: freezing a VM entirely is
// preemption, not deflation.
func (d *Domain) setLimit(k resources.Kind, v float64) error {
	if !(v > 0) {
		return fmt.Errorf("%w: domain %s %s limit %g", ErrInvalid, d.cfg.Name, k, v)
	}
	_, err := d.SetLimits(resources.Vector{}.With(k, v))
	return err
}

// SetCPUShares caps the domain's CPU consumption at cores physical cores
// by adjusting its cgroup CPU bandwidth. The guest still sees all its
// vCPUs; they just run slower.
func (d *Domain) SetCPUShares(cores float64) error {
	return d.setLimit(resources.CPU, cores)
}

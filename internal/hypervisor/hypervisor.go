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
// and the performance models. A Domain is a 16-byte value, its host, its
// slot in the host's row table and that slot's generation, like a libvirt
// domain pointer that copies freely: the host owns everything the handle
// names (configuration, lifecycle state, engaged limits, offered load),
// and the domain carries no guest OS. The
// explicit (hotplug) deflation of Section 4.3 and the guest's swap and
// cache-loss reads belong to the single-VM experiments of Figures 3, 13
// and 14, which boot a guestos.GuestOS beside the domain (package apps)
// and cap the limits they write by what it has online and plugged
// (package mechanism).
//
// # Ownership
//
// A Host and its domains have one owner and, like a bufio.Writer, are
// not safe for concurrent use: the cluster manager that created the host
// (or the single-VM experiment that booted it) is its only caller. The
// host owns all of its residents' state in its row table, which the
// aggregate and view walks read as contiguous host-owned memory: name,
// size, allocation, priority, offered load, lifecycle state and engaged
// limits. Every Domain method reads or writes its resident's row. The
// host caches nothing derived from its rows: Aggregates() is one walk,
// and a caller that wants it cached (the cluster manager) keeps the
// cache and tracks its own writes.
//
// A limit write (Host.SetLimits) is the only allocation write after
// Define. It bumps the host's allocation epoch at most once, however
// many domains it covers. Domain.SetLimits and SetCPUShares are its
// one-element case, and Host.Launch (define, start and initial limits in
// one call) bumps it as Define, Start and SetLimits would.
//
// Undefine invalidates every copy of the handle: the slot's generation
// moves on, even after Define hands the slot to another domain. A stale
// handle's reads then return zero values (Host aside), and its
// lifecycle calls and limit writes fail with ErrNotFound, as libvirt's
// do on an undefined domain, moving no row, aggregate or epoch. So does
// the zero Domain.
package hypervisor

import (
	"errors"
	"fmt"
	"math"
	"sort"

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
// into its row's padding.
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
// microservice container keeps running. It is every domain's deflation
// floor, the minimum m_i of Section 5.1.1 equation (2): Validate admits
// no size below it, so it needs no capping by the size, and no domain
// carries a floor of its own.
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
	// simulator stores the VM's trace row). It sits in its row's padding:
	// a row is no larger for it.
	Tag int32
	// Priority pi in (0,1] — higher priority means lower deflation
	// tolerance (Section 5.1.2). Validate admits [0, 1] and rejects NaN.
	// Ignored for non-deflatable VMs.
	Priority float64
	// Load is the domain's offered request load in cores (core-seconds
	// of CPU demand per second). At Define it seeds the live value
	// maintained by SetOfferedLoad, and Domain.Config returns the live
	// value, so a VM admitted — or evacuated to a new server — under load
	// is visible to latency-aware policies from its first policy pass.
	Load float64
}

// Validate reports, wrapping ErrInvalid, a configuration Define would
// refuse: an empty name; a CPU size below one core or not finite; a
// memory size below the guest kernel's reserve (reserveMB) or not
// finite; a negative size component; a deflatable priority outside
// [0, 1]; or a negative or non-finite load. A guest sized like a valid
// domain always boots, and every valid size is at least DefaultFloor.
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
	if c.Deflatable && !(c.Priority >= 0 && c.Priority <= 1) { // also catches NaN
		return fmt.Errorf("%w: domain %s priority %g outside [0, 1]", ErrInvalid, c.Name, c.Priority)
	}
	if c.Load < 0 || math.IsNaN(c.Load) || math.IsInf(c.Load, 0) {
		return fmt.Errorf("%w: domain %s offered load %g is negative or not finite", ErrInvalid, c.Name, c.Load)
	}
	return nil
}

// Floor returns the configuration's deflation floor, DefaultFloor: the
// same for every domain Define accepts.
func (c DomainConfig) Floor() resources.Vector { return DefaultFloor() }

// Aggregates is the host's resource accounting, summed by one walk over
// the residents in name order, so its float sums are reproducible bit
// for bit whatever order the domains were defined in.
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

// row is one resident's state: the configuration copied at Define (its
// Load seeds load) and the mutable columns (allocation, offered load,
// lifecycle state, engaged limits) that the Domain methods write. Rows
// live in Host.rows, so a walk touches contiguous host-owned memory and
// dereferences no Domain.
type row struct {
	name     string
	size     resources.Vector // DomainConfig.Size
	alloc    resources.Vector // current allocation (see row.derive)
	priority float64
	// load is the offered request load (cores) last reported through
	// SetOfferedLoad, seeded from DomainConfig.Load.
	load float64
	tag  int32
	// gen is the slot's generation: Undefine bumps it, and a handle
	// names the row only while its own gen matches. It survives the
	// zeroing of a freed row.
	gen   uint32
	state DomainState
	// deflated is alloc.DeflationFraction(size) > 0 — the Aggregates.Deflated
	// predicate, evaluated when alloc is written instead of at every visit.
	deflated   bool
	deflatable bool
	// limits holds the engaged cgroup controllers, one per resource kind:
	// a positive component is the controller's limit, zero means the
	// controller is not engaged (no write engages one at zero or below).
	// Only a limit write reads it, so it comes last.
	limits resources.Vector
}

// undefinedRow is what an undefined handle reads: every column zero.
// Nothing writes it; every writer checks the handle's generation first.
var undefinedRow row

// Host is one simulated physical server running a KVM hypervisor. It
// owns its residents' state, and it is not safe for
// concurrent use (see the package comment).
type Host struct {
	cfg HostConfig

	// rows is the row table. A row keeps its slot for its resident's
	// whole life: Undefine zeroes it, bumps its gen and pushes the slot
	// onto free, which Define pops before it appends a new row. order
	// holds the live slots sorted by name; it is also the name index
	// (find). Every walk goes through it, so freed slots are never
	// visited and the walks iterate in a fixed order, which keeps the
	// float sums of Aggregates() bit-for-bit reproducible — map (or slot)
	// order would perturb the low bits run to run and break the
	// simulator's determinism guarantee.
	rows  []row
	order []int32
	free  []int32

	// epoch is the allocation epoch (see AllocEpoch), bumped by
	// SetLimits.
	epoch uint64
	// walks counts Aggregates walks (AggregateWalks).
	walks int
}

// NewHost boots a hypervisor on a server with the given capacity.
func NewHost(cfg HostConfig) (*Host, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: empty host name", ErrInvalid)
	}
	if err := cfg.Capacity.CheckCapacity(); err != nil {
		return nil, fmt.Errorf("%w: host %s %v", ErrInvalid, cfg.Name, err)
	}
	return &Host{cfg: cfg}, nil
}

// Name returns the host's name.
func (h *Host) Name() string { return h.cfg.Name }

// Capacity returns the host's physical resources.
func (h *Host) Capacity() resources.Vector { return h.cfg.Capacity }

// AllocEpoch returns the host's allocation epoch. It moves once per
// limit write call that moves a resident's allocation (however many
// domains the call covers), and on nothing else, so a resident's
// allocation read with it (Domain.AllocationEpoch) is current for as
// long as the epoch is unchanged.
func (h *Host) AllocEpoch() uint64 { return h.epoch }

// AggregateWalks returns how many times Aggregates has walked the row
// table: a plain work count.
func (h *Host) AggregateWalks() int { return h.walks }

// Aggregates returns the host's resource aggregates: one walk over the
// row table in name order — the fixed iteration order that keeps the
// float summations reproducible. The sums are spelled out per
// dimension: the same float operations in the same order as Vector.Add
// and Add(Sub(DefaultFloor()).ClampNonNegative()), without the by-value
// vector copies, which cost more than the arithmetic.
func (h *Host) Aggregates() Aggregates {
	var a Aggregates
	floor := DefaultFloor()
	h.walks++
	rows := h.rows
	for _, slot := range h.order {
		r := &rows[slot]
		for k, v := range r.size {
			a.Committed[k] += v
		}
		if r.state != Running {
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
			v -= floor[k]
			if v < 0 {
				v = 0
			}
			a.DeflatableReserve[k] += v
		}
		if r.deflated {
			a.Deflated++
		}
	}
	return a
}

// AppendDeflatableView appends the host's policy view of its running
// deflatable domains — one policy.VMState plus the matching Domain per
// VM, in name order — to states and domains, and returns the extended
// slices; every state's Min is DefaultFloor and its Load the domain's
// live offered load. It is one walk over the row table. Callers own the
// destination slices; passing buffers they reuse across passes makes the
// whole read allocation-free.
//
// The appended states are a snapshot: a subsequent mutation or load
// write shows in the next read, but touches no slice already handed out,
// exactly like Aggregates().
func (h *Host) AppendDeflatableView(states []policy.VMState, domains []Domain) ([]policy.VMState, []Domain) {
	floor := DefaultFloor()
	rows := h.rows
	for _, slot := range h.order {
		r := &rows[slot]
		if r.state != Running || !r.deflatable {
			continue
		}
		states = append(states, policy.VMState{})
		st := &states[len(states)-1]
		st.Name, st.Max, st.Min, st.Priority, st.Current, st.Load = r.name, r.size, floor, r.priority, r.alloc, r.load
		domains = append(domains, Domain{host: h, slot: slot, gen: r.gen})
	}
	return states, domains
}

// find returns the position in order of the first resident whose
// name is >= name, and whether that resident is named name.
func (h *Host) find(name string) (int, bool) {
	i := sort.Search(len(h.order), func(i int) bool { return h.rows[h.order[i]].name >= name })
	return i, i < len(h.order) && h.rows[h.order[i]].name == name
}

// handle returns the handle on the resident at position i of order.
func (h *Host) handle(i int) Domain {
	slot := h.order[i]
	return Domain{host: h, slot: slot, gen: h.rows[slot].gen}
}

// Define creates a domain. Defining does not reserve physical resources:
// like a real IaaS hypervisor, the host permits overcommitment, which is
// exactly what deflation exists to manage. The domain's row, with no
// controller engaged, takes a freed slot of the host's row table or a
// new one. The returned pointer is the one allocation; Launch, the
// cluster manager's path, hands out the handle by value.
func (h *Host) Define(cfg DomainConfig) (*Domain, error) {
	i, err := h.admit(cfg)
	if err != nil {
		return nil, err
	}
	d := h.insert(i, cfg)
	return &d, nil
}

// Launch defines a domain, starts it and writes its initial limits —
// initial clamped as ClampTarget clamps it — in one call, with the
// effect of Define, Start and SetLimits in turn: the epoch moves once if
// and only if the initial allocation is below the size. It is all or
// nothing: it fails with the host as it was on what Define refuses and,
// after those checks, on an initial vector with a negative or NaN
// component (ErrInvalid).
func (h *Host) Launch(cfg DomainConfig, initial resources.Vector) (Domain, error) {
	i, err := h.admit(cfg)
	if err == nil {
		err = checkTarget(cfg.Name, initial)
	}
	if err != nil {
		return Domain{}, err
	}
	d := h.insert(i, cfg)
	r := &h.rows[d.slot]
	r.state = Running
	r.limits = initial.Clamp(DefaultFloor(), r.size) // a fresh row engages nothing
	if a := r.derive(); a != r.alloc {
		r.setAlloc(a)
		h.epoch++
	}
	return d, nil
}

// admit is Define's refusals: it validates cfg, rejects a name already
// defined, and returns the name's position in order.
func (h *Host) admit(cfg DomainConfig) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	i, dup := h.find(cfg.Name)
	if dup {
		return 0, fmt.Errorf("%w: %s", ErrExists, cfg.Name)
	}
	return i, nil
}

// insert adds cfg's row at position i of the name order, in a freed slot
// if there is one and otherwise a new one, and returns its handle.
func (h *Host) insert(i int, cfg DomainConfig) Domain {
	var slot int32
	if n := len(h.free); n > 0 {
		slot, h.free = h.free[n-1], h.free[:n-1]
	} else {
		slot = int32(len(h.rows))
		h.rows = append(h.rows, row{})
	}
	r := &h.rows[slot]
	*r = row{
		name:       cfg.Name,
		size:       cfg.Size,
		alloc:      cfg.Size,
		priority:   cfg.Priority,
		load:       cfg.Load,
		tag:        cfg.Tag,
		gen:        r.gen,
		deflatable: cfg.Deflatable,
	}
	h.order = append(h.order, 0)
	copy(h.order[i+1:], h.order[i:])
	h.order[i] = slot
	return h.handle(i)
}

// Lookup finds a domain by name.
func (h *Host) Lookup(name string) (Domain, error) {
	if i, ok := h.find(name); ok {
		return h.handle(i), nil
	}
	return Domain{}, fmt.Errorf("%w: %s", ErrNotFound, name)
}

// Domains lists domains sorted by name.
func (h *Host) Domains() []Domain {
	out := make([]Domain, len(h.order))
	for i := range h.order {
		out[i] = h.handle(i)
	}
	return out
}

// Undefine removes a stopped domain from the host: its row is zeroed
// and its slot freed under the next generation, which invalidates every
// copy of its handle (see the package comment).
func (h *Host) Undefine(name string) error {
	i, ok := h.find(name)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	slot := h.order[i]
	r := &h.rows[slot]
	if r.state == Running {
		return fmt.Errorf("%w: cannot undefine running domain %s", ErrState, name)
	}
	h.order = append(h.order[:i], h.order[i+1:]...)
	*r = row{gen: r.gen + 1}
	h.free = append(h.free, slot)
	return nil
}

// Domain is a handle on one VM resident on a Host, held and copied by
// value: the host, the slot of the domain's row in its table, which
// the row keeps for the domain's whole life, and the slot's generation
// at Define. The host owns the state the handle names. Like its host it
// is not safe for concurrent use.
type Domain struct {
	host *Host
	slot int32
	gen  uint32
}

// errUndefined is what a lifecycle call or limit write through an
// undefined handle returns.
var errUndefined = fmt.Errorf("%w: undefined domain handle", ErrNotFound)

// live returns the domain's row, or nil once it is undefined (or d is
// the zero Domain).
func (d Domain) live() *row {
	if d.host == nil {
		return nil
	}
	if r := &d.host.rows[d.slot]; r.gen == d.gen {
		return r
	}
	return nil
}

// row returns the domain's row, undefinedRow once undefined.
func (d Domain) row() *row {
	if r := d.live(); r != nil {
		return r
	}
	return &undefinedRow
}

// setAlloc writes the row's allocation column and the Deflated predicate
// that depends on it.
func (r *row) setAlloc(v resources.Vector) {
	r.alloc = v
	r.deflated = v.DeflationFraction(r.size) > 0
}

// derive computes the row's allocation from first principles: its
// nominal size capped by every engaged cgroup limit.
func (r *row) derive() resources.Vector {
	a := r.size
	for k, l := range r.limits {
		if l > 0 && l < a[k] {
			a[k] = l
		}
	}
	return a
}

// Name returns the domain name.
func (d Domain) Name() string { return d.row().name }

// Config returns the domain's configuration, its Load the live offered
// load: re-defined elsewhere (an evacuation), the VM lands under the
// load it carries now, not the one it was admitted with.
func (d Domain) Config() DomainConfig {
	r := d.row()
	return DomainConfig{Name: r.name, Size: r.size, Deflatable: r.deflatable, Tag: r.tag, Priority: r.priority, Load: r.load}
}

// Host returns the host the domain was defined on.
func (d Domain) Host() *Host { return d.host }

// State returns the domain's lifecycle state.
func (d Domain) State() DomainState { return d.row().state }

// Start transitions Defined/Shutoff -> Running.
func (d Domain) Start() error {
	r := d.live()
	if r == nil {
		return errUndefined
	}
	if r.state == Running {
		return fmt.Errorf("%w: %s already running", ErrState, r.name)
	}
	r.state = Running
	return nil
}

// Shutdown transitions Running -> Shutoff.
func (d Domain) Shutdown() error {
	r := d.live()
	if r == nil {
		return errUndefined
	}
	if r.state != Running {
		return fmt.Errorf("%w: %s not running", ErrState, r.name)
	}
	r.state = Shutoff
	return nil
}

// MaxSize returns the nominal undeflated allocation M_i.
func (d Domain) MaxSize() resources.Vector { return d.row().size }

// Allocation returns the domain's current allocation: the nominal size
// capped by its engaged cgroup limits. This is the vector the cluster
// policies account against. It reads the domain's row, written by the
// limit write that last moved the allocation.
func (d Domain) Allocation() resources.Vector { return d.row().alloc }

// AllocationEpoch returns the domain's allocation and its host's
// allocation epoch, read together.
func (d Domain) AllocationEpoch() (resources.Vector, uint64) {
	return d.row().alloc, d.host.epoch
}

// SetOfferedLoad reports the domain's current offered request load in
// cores (core-seconds of demand per second), as metered by whatever is
// watching the VM's request stream. Latency-aware policies read it from
// the host's deflatable view. Negative and non-finite (NaN, ±Inf) values
// clamp to zero. A load moves no aggregate, no free share and no index
// key: the next AppendDeflatableView reads the new value through.
func (d Domain) SetOfferedLoad(v float64) {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if r := d.live(); r != nil {
		r.load = v
	}
}

// --- Transparent deflation knobs (cgroup-backed, Section 4.2) ---

// ClampTarget bounds target into [DefaultFloor, MaxSize], so the VM
// never fully stalls (deflation, not preemption), rejecting a negative
// or NaN component (ErrInvalid) and an undefined handle (ErrNotFound).
// It is the one clamp the mechanisms and the cluster's policy passes
// apply before a limit write.
func (d Domain) ClampTarget(target resources.Vector) (resources.Vector, error) {
	r := d.live()
	if r == nil {
		return resources.Vector{}, errUndefined
	}
	if err := checkTarget(r.name, target); err != nil {
		return resources.Vector{}, err
	}
	return target.Clamp(DefaultFloor(), r.size), nil
}

// checkTarget rejects a target for domain name with a negative or NaN
// component.
func checkTarget(name string, target resources.Vector) error {
	for k, x := range target {
		if !(x >= 0) { // also catches NaN
			return fmt.Errorf("%w: domain %s target %s=%g is negative or NaN", ErrInvalid, name, resources.Kind(k), x)
		}
	}
	return nil
}

// SetLimits writes a policy pass's limits to the host's domains in one
// call. In batch order, every positive component of
// limits[i] engages doms[i]'s cgroup controller at that value (zero ones
// leave theirs as they are), and limits[i] is replaced by the allocation
// doms[i] ends up with. The first bad entry in batch order refuses the
// whole batch before anything is written: a domain of another host, a
// length mismatch or a negative or NaN component with ErrInvalid, an
// undefined handle with ErrNotFound. If any write moved a resident's
// allocation, the allocation epoch moves by exactly one; otherwise it is
// not touched.
func (h *Host) SetLimits(doms []Domain, limits []resources.Vector) error {
	if len(doms) != len(limits) {
		return fmt.Errorf("%w: host %s limit write of %d domains with %d limit vectors", ErrInvalid, h.cfg.Name, len(doms), len(limits))
	}
	for i, d := range doms {
		if d.host != h {
			return fmt.Errorf("%w: domain %s is not on host %s", ErrInvalid, d.Name(), h.cfg.Name)
		}
		r := d.live()
		if r == nil {
			return errUndefined
		}
		for k, x := range limits[i] {
			if !(x >= 0) { // also catches NaN
				return fmt.Errorf("%w: domain %s %s limit %g", ErrInvalid, r.name, resources.Kind(k), x)
			}
		}
	}
	moved := false
	for i, d := range doms {
		r := &h.rows[d.slot]
		for k, x := range limits[i] {
			if x > 0 {
				r.limits[k] = x
			}
		}
		if a := r.derive(); a != r.alloc {
			r.setAlloc(a)
			moved = true
		}
		limits[i] = r.alloc
	}
	if moved {
		h.epoch++
	}
	return nil
}

// SetLimits is Host.SetLimits on this one domain; it returns the
// allocation the domain ends up with.
func (d Domain) SetLimits(limits resources.Vector) (resources.Vector, error) {
	doms, v := [1]Domain{d}, [1]resources.Vector{limits}
	if err := d.host.SetLimits(doms[:], v[:]); err != nil {
		return resources.Vector{}, err
	}
	return v[0], nil
}

// setLimit engages the one cgroup controller k at v through SetLimits.
// A zero, negative or NaN limit is rejected: freezing a VM entirely is
// preemption, not deflation. Through an undefined handle SetLimits
// fails first, with ErrNotFound, whatever v is.
func (d Domain) setLimit(k resources.Kind, v float64) error {
	if !(v > 0) && d.live() != nil {
		return fmt.Errorf("%w: domain %s %s limit %g", ErrInvalid, d.Name(), k, v)
	}
	_, err := d.SetLimits(resources.Vector{}.With(k, v))
	return err
}

// SetCPUShares caps the domain's CPU consumption at cores physical cores
// by adjusting its cgroup CPU bandwidth. The guest still sees all its
// vCPUs; they just run slower.
func (d Domain) SetCPUShares(cores float64) error {
	return d.setLimit(resources.CPU, cores)
}

// Package cluster implements the centralized cluster manager of Sections
// 5.2 and 6: deflation-aware VM placement using cosine-similarity
// fitness, optional priority-partitioned server pools, the three-step
// placement protocol (choose best server → compute required deflation →
// deflate and launch), reinflation on VM departure, and admission
// control when even maximal deflation cannot make room.
//
// # Placement at scale
//
// The manager keeps two incremental indexes (capindex) per priority
// pool, maintained together under one dirty-flag discipline (dirty.go):
//
//   - the surplus index, keyed by dominant free share, answering the
//     tightest-fit "who can host this with no deflation" query in
//     O(log servers);
//   - the pressure index, keyed by |availability| — a demand-independent
//     upper bound on any VM's achievable cosine fitness (Cauchy–
//     Schwarz: A·D/|D| <= |A| for non-negative vectors) — answering the
//     under-pressure ranking by a best-first branch-and-bound descent
//     (pressure.go) that computes exact fitness only until the running
//     best provably beats the bound of every unexplored server.
//
// The manager is its hosts' only writer, and every method that writes a
// host marks that server dirty; each query, and each policy pass over a
// server the manager has just written, first refreshes only the dirty
// servers, so neither index query re-walks a clean server's domains.
// Both keys depend on lifecycle, allocation and capacity only — an
// offered-load write (Domain.SetOfferedLoad) dirties no server;
// policy passes read loads through the host's deflatable view. The
// brute-force linear scans the indexes replace live on in the package's
// tests as oracles (placementOracle): they implement the identical
// selection rule, and the differential suites assert both place
// bit-for-bit identically.
//
// Placement is sequential, as in the paper's centralized controller:
// PlaceVMs decides and commits one VM at a time, in input order, each
// against the state every earlier decision left. The Manager is the one
// placer: the per-server steps it runs (the policy pass that makes room,
// the launch, reinflation) are unexported and run on the configuration
// NewManager normalised once. A Manager has one owner, the goroutine
// that drives it, and is not safe for concurrent use; neither are the
// hosts it creates.
//
// # Outcomes
//
// The manager counts nothing. Each Placement records the path its
// decision took and its pressure-scan work; admission failures and scan
// totals are folds of those records by their reader.
package cluster

import (
	"errors"
	"fmt"

	"vmdeflate/internal/cluster/capindex"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/notify"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// writeTargets applies a policy pass's targets transparently (Section
// 7.4's cluster evaluation runs no other mechanism): targets[i] belongs
// to m.pass.doms[i], whose allocation going in is m.pass.vms[i].Current.
// Each target takes the hypervisor's clamp, the pass is one
// Host.SetLimits call, which overwrites targets with the achieved
// allocations, and then each moved domain's event is published in view
// order, with no further domain read. The server is marked dirty only if
// an allocation moved.
func (m *Manager) writeTargets(s *Server, targets []resources.Vector) error {
	sc := &m.pass
	doms := sc.doms[:len(targets)]
	for i, d := range doms {
		t, err := d.ClampTarget(targets[i])
		if err != nil {
			return err
		}
		targets[i] = t
	}
	if err := s.Host.SetLimits(doms, targets); err != nil {
		return err
	}
	for i, got := range targets {
		old := sc.vms[i].Current
		if got == old {
			continue
		}
		m.markDirty(s)
		if m.cfg.Notify != nil {
			m.cfg.Notify.Publish(notify.Event{
				VM:                doms[i].Name(),
				Server:            s.Host.Name(),
				Kind:              notify.Classify(old, got),
				Old:               old,
				New:               got,
				DeflationFraction: got.DeflationFraction(doms[i].MaxSize()),
			})
		}
	}
	return nil
}

// Errors returned by the manager.
var (
	// ErrNoCapacity is an admission-control rejection: no server can host
	// the VM even after deflating every deflatable VM to its floor. In
	// Figure 20's terms this is a "failure to reclaim sufficient
	// resources".
	ErrNoCapacity = errors.New("cluster: no server can host the VM")
	// ErrNotFound reports an unknown VM or server.
	ErrNotFound = errors.New("cluster: not found")
	// ErrExists reports a duplicate name.
	ErrExists = errors.New("cluster: already exists")
)

// PriorityLevels is the number of discrete priority levels, and so of
// priority pools under Config.PartitionByPriority (4 in the paper's
// simulation).
const PriorityLevels = 4

// Config parameterises a Manager.
type Config struct {
	// Policy is the server-level deflation policy.
	Policy policy.Policy
	// PartitionByPriority places VMs only on servers of their priority
	// pool (Section 5.2.1), one of PriorityLevels. Non-deflatable VMs
	// use the highest pool.
	PartitionByPriority bool
	// Notify, when set, receives an event for every allocation change
	// (Figure 1's notification to the application manager / load
	// balancer).
	Notify *notify.Bus
}

func (c *Config) applyDefaults() {
	if c.Policy == nil {
		c.Policy = policy.Proportional{}
	}
}

// Server is one managed physical server. It owns no policy-pass buffers:
// a pass on any server runs in the manager's one arena (Manager.pass).
type Server struct {
	// Host is the server's hypervisor. A managed host is written only
	// through its Manager, which marks the server for its next dirty
	// sync; a write from outside leaves the cached fields below stale.
	Host *hypervisor.Host
	// Partition is the server's priority pool (0-based); -1 when
	// partitioning is disabled.
	Partition int
	// gidx is the server's add order within its Manager — the canonical
	// tie-break for equal-fitness candidates.
	gidx int
	// revoked marks a server the provider took away (RevokeServers): it
	// stays registered — keeping gidx and pool membership stable — but
	// leaves the capacity indexes and is skipped by every candidate
	// scan until RestoreServer clears the flag.
	revoked bool
	// queued says the server already sits in the manager's dirty list.
	queued bool
	// removeEpoch is the Manager.removeEpoch of the last RemoveVMs call
	// that took a VM off this server — that call's "already in the
	// affected list" mark.
	removeEpoch uint64

	// Cached placement state, refreshed by the owning Manager's dirty
	// sync (syncDirty).
	agg       hypervisor.Aggregates // aggregates at last sync
	free      resources.Vector      // capacity - allocated
	freeShare float64               // free.DominantShare(capacity): the index key
	avail     resources.Vector      // the Section 5.2 availability vector
}

// placementOracle answers a Manager's three placement queries — the
// surplus candidate, the existence check and the under-pressure
// placement — in place of its indexes. The implementations are the
// brute-force scans the indexed paths are proven against, and they live
// in the package's tests: defaultOracle, which NewManager copies into
// every Manager, is nil in every shipped build.
type placementOracle interface {
	surplus(m *Manager, pool int, size resources.Vector) *Server
	anyFits(m *Manager, size resources.Vector) bool
	pressure(m *Manager, dc hypervisor.DomainConfig, best *Server) (d *hypervisor.Domain, s *Server, scored int)
}

var defaultOracle placementOracle

// Manager is the centralized cluster manager. Like a bufio.Writer it is
// not safe for concurrent use: one goroutine owns a Manager and the
// hosts it creates.
type Manager struct {
	cfg        Config
	oracle     placementOracle // nil outside tests: the indexes answer
	servers    []*Server
	byName     map[string]*Server
	placements map[string]*Server

	// Capacity indexes per priority pool (-1 when unpartitioned): the
	// surplus index keyed by dominant free share, its bound-keyed
	// pressure twin (pressure.go), and the component-wise max capacity
	// that gives each index scan its lower bound.
	indexes map[int]*capindex.Index
	bounds  map[int]*capindex.Index
	maxCap  map[int]resources.Vector

	// dirty lists the servers whose cached placement state is stale, each
	// at most once (Server.queued), in the order the manager wrote them
	// (dirty.go). Dirtiness is tracked by handle, so a sync costs
	// O(servers dirty now), whatever the largest burst the list ever held.
	dirty []*Server

	// evacDCs is the reusable displaced-VM batch buffer of a capacity
	// shock (revoke.go).
	evacDCs []hypervisor.DomainConfig

	// affected is the RemoveVMs batch buffer; reusing it keeps removals
	// allocation-free in steady state.
	affected    []*Server
	removeEpoch uint64 // RemoveVMs call counter (Server.removeEpoch)

	// Pruned pressure-scan arenas (pressure.go): the descending
	// bound-index iterator (its stack reused across
	// scans) and the candBefore-ordered min-heap of exactly-scored
	// candidates.
	pressIter capindex.DescIter
	pressHeap candList

	// pass is the policy-pass arena of every server: the buffers a pass
	// fills from a host's deflatable view and the policy.Scratch it
	// solves in. Each pass fills, solves and writes before the next
	// begins.
	pass struct {
		vms  []policy.VMState
		doms []*hypervisor.Domain
		ps   policy.Scratch
	}

	// results is the batch placement scratch, reused across calls.
	results []Placement
}

// NewManager creates a manager with the given configuration.
func NewManager(cfg Config) *Manager {
	cfg.applyDefaults()
	return &Manager{
		cfg:        cfg,
		oracle:     defaultOracle,
		byName:     make(map[string]*Server),
		placements: make(map[string]*Server),
		indexes:    make(map[int]*capindex.Index),
		bounds:     make(map[int]*capindex.Index),
		maxCap:     make(map[int]resources.Vector),
	}
}

// Close does nothing: a Manager holds no goroutine or other resource
// that outlives a call. It is kept so that existing callers (the bench
// package's replay driver) still build.
func (m *Manager) Close() {}

// ServerSpec describes one server for AddServerSpec: name, capacity and
// priority pool.
type ServerSpec struct {
	Name     string
	Capacity resources.Vector
	// Partition is the priority pool (0..PriorityLevels-1); ignored
	// unless Config.PartitionByPriority.
	Partition int
}

// AddServerSpec registers a new physical server with its priority pool.
func (m *Manager) AddServerSpec(spec ServerSpec) (*Server, error) {
	name, capacity := spec.Name, spec.Capacity
	if _, ok := m.byName[name]; ok {
		return nil, fmt.Errorf("%w: server %s", ErrExists, name)
	}
	h, err := hypervisor.NewHost(hypervisor.HostConfig{Name: name, Capacity: capacity})
	if err != nil {
		return nil, err
	}
	partition := spec.Partition
	if !m.cfg.PartitionByPriority {
		partition = -1
	}
	s := &Server{Host: h, Partition: partition, gidx: len(m.servers)}
	m.servers = append(m.servers, s)
	m.byName[name] = s
	if m.indexes[partition] == nil {
		m.indexes[partition] = capindex.New()
		m.bounds[partition] = capindex.New()
	}
	m.maxCap[partition] = m.maxCap[partition].Max(capacity)
	m.markDirty(s)
	return s, nil
}

// Servers returns the managed servers.
func (m *Manager) Servers() []*Server {
	out := make([]*Server, len(m.servers))
	copy(out, m.servers)
	return out
}

// PartitionOf maps a VM to its priority pool index.
func (m *Manager) PartitionOf(dc hypervisor.DomainConfig) int {
	if !m.cfg.PartitionByPriority {
		return -1
	}
	if !dc.Deflatable {
		return PriorityLevels - 1 // on-demand VMs share the highest pool
	}
	level := int(dc.Priority * PriorityLevels)
	if level >= PriorityLevels {
		level = PriorityLevels - 1
	}
	if level < 0 {
		level = 0
	}
	return level
}

// Fitness scores a server's availability A for a demand D. Section 5.2
// writes the score as the cosine similarity A·D/(|A||D|), following the
// multi-resource packing of Tetris [19]; Tetris's alignment score keeps
// the magnitude of A (it is a projection, not a pure angle), and the
// paper's own availability vector discounts overcommitted servers
// precisely so that "this approach prefers servers with lower
// overcommitment" — which only has an effect if |A| matters. We
// therefore normalise by |D| only: fitness = A·D/|D|, the length of A's
// projection onto the demand direction.
func Fitness(demand, avail resources.Vector) float64 {
	nd := demand.Norm()
	if nd < 1e-9 {
		nd = 1e-9
	}
	return avail.Dot(demand) / nd
}

// availabilityFrom computes the paper's placement availability vector
// over an aggregate snapshot: A_j = Total_j - Used_j +
// deflatable_j/(1 + overcommit_j), where deflatable_j is the total
// resource reclaimable from deflatable VMs and overcommit_j discounts
// servers that are already squeezed. The one definition shared by the
// cached per-server vector and the reference oracle's fresh reads, so
// the two are bit-equal.
func availabilityFrom(total resources.Vector, agg hypervisor.Aggregates) resources.Vector {
	oc := 0.0
	if c := agg.Committed.DominantShare(total); c > 1 {
		oc = c - 1
	}
	avail := total.Sub(agg.Allocated).Add(agg.DeflatableReserve.Scale(1 / (1 + oc)))
	return avail.ClampNonNegative()
}

// fitMargin pads index lower-bound scans so a server that fits only
// thanks to resources.Vector's FitsIn epsilon is never pruned: any such
// server's free share is below the exact demand share by at most
// eps/capacity, far less than this margin.
const fitMargin = 1e-7

// errExists and errNoCapacity build the placement error values.
func errExists(name string) error {
	return fmt.Errorf("%w: VM %s", ErrExists, name)
}

func errNoCapacity(dc hypervisor.DomainConfig) error {
	return &rejection{name: dc.Name, size: dc.Size}
}

// rejection is an admission-control refusal: one allocation per refused
// arrival, its text formatted only when asked. It unwraps to
// ErrNoCapacity.
type rejection struct {
	name string
	size resources.Vector
}

func (r *rejection) Error() string {
	return fmt.Sprintf("%v: %s (size %v)", ErrNoCapacity, r.name, r.size)
}

func (r *rejection) Unwrap() error { return ErrNoCapacity }

// Path is the route a placement decision took: the step that placed the
// VM or, on a rejection, the gate that refused it.
type Path uint8

const (
	// PathNone: nothing was decided — the VM's configuration was
	// invalid (Err wraps hypervisor.ErrInvalid) or its name was already
	// live (Err wraps ErrExists).
	PathNone Path = iota
	// PathSurplus: a server hosted the VM without deflating anyone.
	PathSurplus
	// PathPressure: the VM went through the under-pressure ranking of
	// Section 5.2. With Err set, no server could make room for it even
	// by deflation: an admission-control rejection, or a failed
	// evacuee relocation.
	PathPressure
)

// Placement is one VM's outcome in a PlaceVMs batch.
type Placement struct {
	Domain *hypervisor.Domain
	Server *Server
	Err    error
	// Initial is the domain's allocation right after its own launch,
	// before any later VM of the same batch could deflate it — what a
	// caller placing VMs one at a time would have read back immediately.
	// Zero when Err is set.
	Initial resources.Vector
	// NeedsReclaim records whether, at the moment this VM's placement
	// was decided (after every earlier VM of its batch was placed), no
	// server could host it without deflation — the signal the simulation
	// engine counts as a reclamation attempt.
	NeedsReclaim bool
	// Path is the route the decision took.
	Path Path
	// Scored and Pruned are the decision's under-pressure scan work,
	// zero off PathPressure: how many servers had their exact fitness
	// computed, and how many indexed servers the bound-pruned descent
	// skipped without scoring. A test-side full-scan oracle scores every
	// pool server and prunes none.
	Scored, Pruned int
}

// PlaceVMs runs the three-step placement of Section 6 for each VM of a
// batch, one at a time in input order: pick the fittest server, have it compute the deflation
// required to make room (possibly deflating the newcomer itself), then
// perform the deflation and launch. A batch places exactly as the same
// VMs in one-element batches would. The simulation engine feeds it the
// same-timestamp arrival batches of a trace, and evacuations their
// relocation batches.
//
// Surplus-first: "when there is surplus capacity in the cluster, the
// cloud manager allocates these resources ... without deflating"
// (Section 5). Among servers that can host the VM with no deflation,
// tightest fit (smallest dominant free share, name-tiebroken) preserves
// large contiguous capacity for future big VMs. Under pressure, servers
// are ranked by the deflation-aware availability fitness of Section 5.2
// and residents are deflated on the best server that can absorb the
// newcomer; a VM no server can host fails with ErrNoCapacity. A
// configuration hypervisor.Define would refuse fails with
// hypervisor.ErrInvalid before any server is examined or deflated.
//
// Results are appended to out (which may be nil) and the extended slice
// is returned, so a caller owns its results, while a loop reusing its
// buffer (`buf = m.PlaceVMs(dcs, buf[:0])`) stays allocation-free in
// steady state.
func (m *Manager) PlaceVMs(dcs []hypervisor.DomainConfig, out []Placement) []Placement {
	m.placeAll(dcs)
	return append(out, m.results...)
}

// placeAll fills m.results for dcs, placing them one at a time in
// input order.
func (m *Manager) placeAll(dcs []hypervisor.DomainConfig) {
	if cap(m.results) < len(dcs) {
		m.results = make([]Placement, 0, len(dcs))
	}
	m.results = m.results[:0]
	for _, dc := range dcs {
		m.results = append(m.results, m.placeOne(dc))
	}
}

// placeOne is the placement decision and its commit for one VM:
// the three-step protocol of PlaceVMs at the live state.
func (m *Manager) placeOne(dc hypervisor.DomainConfig) Placement {
	// An invalid configuration and a live name are caller errors, not
	// admission decisions: they are reported before a policy pass could
	// deflate a resident for the VM.
	if err := dc.Validate(); err != nil {
		return Placement{Err: err}
	}
	if _, ok := m.placements[dc.Name]; ok {
		return Placement{Err: errExists(dc.Name)}
	}
	m.syncDirty()
	best := m.surplusCandidate(m.PartitionOf(dc), dc.Size)
	// A surplus candidate in the VM's own pool already proves some
	// server fits without deflation; only its absence needs the
	// cross-pool existence scan.
	out := Placement{NeedsReclaim: best == nil && !m.anyFits(dc.Size)}
	if best != nil {
		if d, err := m.placeOn(best, dc); err == nil {
			out.Path, out.Domain, out.Server = PathSurplus, d, best
			out.Initial = d.Allocation()
			return out
		}
	}
	if !m.pressureLive(dc, best, &out) {
		out.Err = errNoCapacity(dc)
		return out
	}
	out.Initial = out.Domain.Allocation()
	return out
}

// reserveMargin pads the feasibility pre-filter so it can only skip
// servers the policy pass would certainly refuse: the pass accepts when
// it frees need within 1e-6, and its freed amount can differ from the
// cached reserve bound only by accumulated float round-off, orders of
// magnitude below this margin.
const reserveMargin = 1e-3

// cannotReclaim is the feasibility pre-filter shared by tryPlace
// and the bound-pruned pressure descent: it reports that s certainly
// cannot host dc even after deflating every resident to its floor plus
// the newcomer's own deflatable range. One definition — the identical
// float expressions — is what guarantees the pruned scan's fit-skip set
// equals exactly the set of servers tryPlace would refuse, so
// skipping them before scoring can never change a placement. Reads only
// cached per-server state.
func cannotReclaim(s *Server, dc hypervisor.DomainConfig, ncRange resources.Vector) bool {
	limit := s.agg.DeflatableReserve.Add(ncRange)
	for _, k := range resources.Kinds {
		if dc.Size.Get(k)-s.free.Get(k) > limit.Get(k)+reserveMargin {
			return true
		}
	}
	return false
}

// newcomerRange is the newcomer's own deflatable range, which joins
// every server's maximum reclaim in the feasibility pre-filter.
func newcomerRange(dc hypervisor.DomainConfig) resources.Vector {
	if !dc.Deflatable {
		return resources.Vector{}
	}
	return dc.Size.Sub(dc.Floor()).ClampNonNegative()
}

// tryPlace attempts one under-pressure placement on s and returns
// the new domain, or nil. Infeasible servers — where even deflating
// every resident to its floor plus the newcomer's own range cannot
// cover the shortfall — are skipped from the cached aggregates without
// running the policy pass, which turns an admission-control rejection
// from O(servers × policy pass) into O(servers) vector compares. The
// cached free/reserve vectors are valid because failed placement
// attempts never mutate host state.
func (m *Manager) tryPlace(s *Server, dc hypervisor.DomainConfig, ncRange resources.Vector) *hypervisor.Domain {
	if cannotReclaim(s, dc, ncRange) {
		return nil
	}
	d, err := m.placeOn(s, dc)
	if err != nil {
		return nil
	}
	return d
}

// cand is one under-pressure placement candidate. idx is the server's
// manager-wide add order (Server.gidx), the tie-break of the candidate
// order; do not replace it with a positional index. The strict total
// order also means sorting with any algorithm yields the
// stable-descending ranking, without the reflection-based swapper
// sort.SliceStable costs on a struct slice (it showed up at ~20% of a
// 100k-VM run's profile).
type cand struct {
	s       *Server
	fitness float64
	idx     int
}

// candBefore is the strict total pressure order: fitness descending,
// then server add-index ascending.
func candBefore(a, b cand) bool {
	if a.fitness != b.fitness {
		return a.fitness > b.fitness
	}
	return a.idx < b.idx
}

type candList []cand

// surplusCandidate returns the tightest-fit server that can host
// size without any deflation — the server with the smallest (dominant
// free share, name) among those whose free vector fits size — or nil.
func (m *Manager) surplusCandidate(pool int, size resources.Vector) *Server {
	if m.oracle != nil {
		return m.oracle.surplus(m, pool, size)
	}
	return m.surplusIndexed(pool, size)
}

// surplusIndexed asks the pool's ordered index for its first
// fitting entry, ascending from a demand-share lower bound, so each
// scan inspects O(log S) plus however many near-full servers fit on the
// dominant dimension but not the others.
func (m *Manager) surplusIndexed(pool int, size resources.Vector) *Server {
	ix := m.indexes[pool]
	if ix == nil {
		return nil
	}
	name, _, ok := ix.FirstFitting(m.fitLower(pool, size), size)
	if !ok {
		return nil
	}
	return m.byName[name]
}

// fitLower is the lower bound a surplus scan of index key starts from:
// any server that fits size has a free share at least the demand's
// dominant share of the index's largest capacity, minus float fuzz.
func (m *Manager) fitLower(key int, size resources.Vector) float64 {
	return size.DominantShare(m.maxCap[key]) - fitMargin
}

// anyFits reports whether any server in the cluster (regardless
// of priority pool) can host size with no deflation.
func (m *Manager) anyFits(size resources.Vector) bool {
	if m.oracle != nil {
		return m.oracle.anyFits(m, size)
	}
	return m.anyFitsIndexed(size)
}

// anyFitsIndexed is anyFits from the live indexes.
// Order-independent: it is an existence check, so the random map
// iteration is fine.
func (m *Manager) anyFitsIndexed(size resources.Vector) bool {
	for key, ix := range m.indexes {
		if _, _, ok := ix.FirstFitting(m.fitLower(key, size), size); ok {
			return true
		}
	}
	return false
}

// placeOn attempts placement on one server, implementing steps 2
// and 3 of the placement protocol: the server computes the deflation
// needed to host dc and, if feasible, applies it and launches the VM. On
// success it marks the server, records the placement and returns the
// new domain.
func (m *Manager) placeOn(s *Server, dc hypervisor.DomainConfig) (*hypervisor.Domain, error) {
	initial, err := m.deflateFor(s, dc)
	if err != nil {
		return nil, err // insufficient: caller tries the next server
	}
	d, err := launch(s, dc, initial)
	if err != nil {
		return nil, err
	}
	m.markDirty(s)
	m.placements[dc.Name] = s
	return d, nil
}

// newcomerName is the placeholder under which a deflatable newcomer
// joins its own admission's policy pass. The NUL prefix cannot collide
// with a real domain name.
const newcomerName = "\x00newcomer"

// deflateFor is placeOn's policy pass: it computes and applies the
// deflation that makes room for dc on s, and returns the newcomer's
// initial allocation. The pass solves in the manager's arena (solve),
// then writes the residents' targets in one limit write and notifies in
// the view's name order — so steady-state calls perform zero heap
// allocations and notification delivery is deterministic.
//
// The free vector is the synced s.free: the caller synced before the
// decision, and nothing has written s since (a failed attempt writes
// nothing). deflateFor must not sync itself: a sync re-keys the bound
// index the pressure descent is iterating.
func (m *Manager) deflateFor(s *Server, dc hypervisor.DomainConfig) (resources.Vector, error) {
	need := dc.Size.Sub(s.free).ClampNonNegative()
	if need.IsZero() {
		// Room available without any deflation.
		return dc.Size, nil
	}
	// The newcomer joins the pass if it is itself deflatable ("a new
	// incoming VM ... can thus start its execution in a deflated mode",
	// Section 5.1.1).
	var newcomer *policy.VMState
	if dc.Deflatable {
		newcomer = &policy.VMState{
			Name:     newcomerName,
			Max:      dc.Size,
			Min:      dc.Floor(),
			Priority: dc.Priority,
			Current:  dc.Size, // joins at full size; policy shrinks it
			Load:     dc.Load,
		}
	}
	res, err := m.solve(s, newcomer, need)
	if err != nil {
		return resources.Vector{}, err
	}
	nResident := len(m.pass.doms)
	initial := dc.Size
	if dc.Deflatable {
		initial = res.Targets[nResident]
	}
	// Apply deflation to resident VMs, in the view's name order.
	if err := m.writeTargets(s, res.Targets[:nResident]); err != nil {
		return resources.Vector{}, err
	}
	return initial, nil
}

// solve is the one solve step of both policy passes (deflateFor and
// reinflate): it fills the pass arena from s's deflatable view, appends
// the newcomer if there is one and runs the policy for need (negative
// to hand capacity back). Targets[i] belongs
// to m.pass.doms[i], the newcomer's follows; each pass handles
// policy.ErrInsufficient itself.
func (m *Manager) solve(s *Server, newcomer *policy.VMState, need resources.Vector) (policy.SliceResult, error) {
	sc := &m.pass
	sc.vms, sc.doms = s.Host.AppendDeflatableView(sc.vms[:0], sc.doms[:0])
	if newcomer != nil {
		sc.vms = append(sc.vms, *newcomer)
	}
	return m.cfg.Policy.TargetsInto(sc.vms, need, &sc.ps)
}

// launch defines, starts and initially sizes the new domain: a deflated
// initial allocation takes the transparent clamp and one limit write.
func launch(s *Server, dc hypervisor.DomainConfig, initial resources.Vector) (*hypervisor.Domain, error) {
	d, err := s.Host.Define(dc)
	if err != nil {
		return nil, err
	}
	if err := d.Start(); err != nil {
		s.Host.Undefine(dc.Name)
		return nil, err
	}
	if initial != dc.Size {
		t, err := d.ClampTarget(initial)
		if err == nil {
			_, err = d.SetLimits(t)
		}
		if err != nil {
			d.Shutdown()
			s.Host.Undefine(dc.Name)
			return nil, err
		}
	}
	return d, nil
}

// RemoveVMs removes a batch of VMs and then reinflates each affected
// server exactly once — the batched form the simulation engine uses to
// coalesce simultaneous departures, which turns k same-instant
// departures from one server into one policy pass instead of k. Servers
// reinflate in the order they are first touched by names, so the result
// is deterministic for a deterministic name order.
func (m *Manager) RemoveVMs(names ...string) error {
	// Servers touched by this call carry its epoch: a stamp compare per
	// name instead of a per-call set.
	m.removeEpoch++
	affected := m.affected[:0]
	var firstErr error
	for _, name := range names {
		s, err := m.removeOne(name)
		if err != nil {
			// Stop removing, but fall through to reinflation: servers
			// whose VMs already left must not keep their survivors
			// deflated just because a later name in the batch was bad.
			firstErr = err
			break
		}
		if s.removeEpoch != m.removeEpoch {
			s.removeEpoch = m.removeEpoch
			affected = append(affected, s)
		}
	}
	m.affected = affected
	// One sync after the teardowns: each pass below reads its server's
	// refreshed cache, and writes no other server.
	m.syncDirty()
	for _, s := range affected {
		if err := m.reinflate(s); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// removeOne tears one placed VM down and returns the server it
// left.
func (m *Manager) removeOne(name string) (*Server, error) {
	s, ok := m.placements[name]
	if !ok {
		return nil, fmt.Errorf("%w: VM %s", ErrNotFound, name)
	}
	d, err := s.Host.Lookup(name)
	if err != nil {
		return nil, err
	}
	return s, m.teardown(s, d)
}

// teardown stops and undefines d on s and forgets its placement —
// the departure half shared by RemoveVMs and the displacement of a
// capacity shock's evacuees — and marks s. The name is read first:
// an undefined handle reads zero values.
func (m *Manager) teardown(s *Server, d *hypervisor.Domain) error {
	if d.State() == hypervisor.Running {
		if err := d.Shutdown(); err != nil {
			return err
		}
	}
	m.markDirty(s)
	name := d.Name()
	if err := s.Host.Undefine(name); err != nil {
		return err
	}
	delete(m.placements, name)
	return nil
}

// reinflate redistributes free capacity to deflated VMs on s ("run the
// proportional deflation backwards", Section 5.1.3): the solve step with
// the free capacity as a negative need, written in one limit write and
// notified in name order, so steady-state calls are allocation-free. It
// reads the synced cache (s.agg, s.free), so a caller that has just
// written s syncs first. The Deflated count short-circuits the common
// case where nothing on the server is deflated, before the view is read.
func (m *Manager) reinflate(s *Server) error {
	if s.agg.Deflated == 0 {
		return nil
	}
	free := s.free.ClampNonNegative()
	if free.IsZero() {
		return nil
	}
	res, err := m.solve(s, nil, free.Scale(-1))
	if errors.Is(err, policy.ErrInsufficient) {
		// The targets need more than the free capacity, which the
		// policy contract allows though no test reaches it: the
		// residents stay where they are.
		return nil
	}
	if err != nil {
		return err
	}
	return m.writeTargets(s, res.Targets)
}

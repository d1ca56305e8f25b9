package hypervisor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// fuzzCores and fuzzMemMB are the sizes a fuzzed Define draws: integer
// and fractional cores, and memory below, at and above the guest
// kernel's reserve, so some Defines are invalid.
var (
	fuzzCores = [...]float64{0.5, 1, 2, 2.4, 2.6, 7.5}
	fuzzMemMB = [...]float64{128, 256, 1000, 4096}
)

// fuzzLimits are the components a limit write draws: zero (disengaged,
// or "leave as is"), negative, NaN, and positive values below and above
// the sizes.
var fuzzLimits = [...]float64{0, -1, 0.3, 1.5, 2, 3.7, 64, 700, 2048, 1e4, math.NaN()}

// fuzzLoads are the offered loads a load write draws: zero, fractional
// and whole cores, and the negative and non-finite values SetOfferedLoad
// clamps to zero.
var fuzzLoads = [...]float64{0, 0.5, 3, 7.25, -1, math.NaN(), math.Inf(1), math.Inf(-1)}

// domainModel is the fuzz target's naive model of one domain: what the
// op sequence engaged, nothing read back from the domain. An undefined
// handle's model is all zeros but d: it reads zero values.
type domainModel struct {
	d      Domain
	size   resources.Vector
	state  DomainState
	limits resources.Vector // positive where a write engaged a controller
	load   float64          // the last offered load written, clamped
}

// alloc is the model's allocation: the size capped by every engaged
// limit.
func (m *domainModel) alloc() resources.Vector {
	a := m.size
	for k, l := range m.limits {
		if l > 0 {
			a[k] = math.Min(a[k], l)
		}
	}
	return a
}

// fuzzBytes hands out a fuzz input one byte at a time, zeros past its end.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// FuzzDomainOps drives one host through byte-decoded sequences of
// Define (invalid sizes included), Launch (invalid initial vectors
// included), Start, Shutdown, Undefine, SetLimits (zero, negative and
// NaN components included) on one domain or, as one Host.SetLimits
// batch, on several, SetCPUShares and SetOfferedLoad (negative and
// non-finite loads included) over a pool of eight names, against a
// naive model (runDomainOps). Three seeds are op mixes written with
// domainOps: every mutator against one host, limit rewrites on one
// domain, and load writes read through the view.
// The long streams over hundreds of names are the named tests
// TestAggregatesMatchFreshRecompute and TestDeflatableViewMatchesFreshWalk.
//
//	go test -run '^$' -fuzz FuzzDomainOps -fuzztime 15s -fuzzminimizetime 200x ./internal/hypervisor
func FuzzDomainOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 3, 2, 1, 0, 2, 0, 4, 3, 0, 5, 0, 7, 0, 2, 8, 0, 1})
	f.Add([]byte{0, 1, 4, 3, 1, 1, 2, 1, 3, 4, 0, 6, 1, 2, 3, 1, 1, 5, 1, 1, 2, 2, 2, 3, 1})
	f.Add([]byte{0, 2, 0, 0, 0, 2, 5, 1, 1, 2, 3, 2, 6, 7, 8, 2, 4, 2, 1, 4, 3, 2, 3, 2})
	// Undefine the middle resident of three while the last-defined one
	// holds the table's last row, which keeps its slot, then write that
	// domain's limits and flip it, drive the undefined handle, redefine
	// its name into the freed slot and drive the old handle once more.
	f.Add([]byte{
		0, 0, 2, 2, 0, 1, 2, 2, 0, 2, 2, 2, // define vm-0, vm-1, vm-2
		1, 0, 1, 1, 1, 2, 4, 2, 3, 7, 0, 0, // start all three; limits on vm-2
		2, 1, 3, 1, // shut vm-1 down and undefine it: vm-2 moves into its slot
		4, 2, 2, 6, 0, 0, 5, 2, 4, 2, 2, 1, 2, // vm-2: limits, shares, shutdown, start
		1, 129, 4, 129, 3, 7, 0, 0, 5, 129, 2, 2, 129, // the undefined vm-1 handle
		0, 1, 2, 3, 1, 1, 4, 129, 5, 6, 0, 0, // redefine vm-1; the old handle again
	})
	// Name order is not row order: vm-1, defined last, sorts first. Undefine
	// vm-6 (row 0) and then vm-3 (row 1), which leaves two holes below
	// vm-7 and vm-1, each written after the undefines beside it.
	f.Add([]byte{
		0, 6, 2, 2, 0, 3, 2, 2, 0, 7, 2, 2, 0, 1, 2, 2, // define vm-6, vm-3, vm-7, vm-1
		3, 6, 4, 1, 3, 7, 0, 0, 1, 1, // undefine vm-6; limits on vm-1 and start it
		3, 3, 4, 7, 2, 6, 0, 0, 1, 7, 2, 7, 1, 7, // undefine vm-3; vm-7: limits, start, shutdown, start
		4, 134, 3, 7, 0, 0, 1, 131, 2, 131, 5, 134, 4, // the undefined vm-6 and vm-3 handles
		2, 1, 3, 1, 2, 7, 3, 7, // shut down and undefine vm-1, then vm-7: the table empties
	})
	// Slot reuse: vm-5 takes the slot vm-0 left, then vm-6 is launched
	// into the slot vm-5 left (its third generation). Both older handles
	// are driven after each reuse: they read zero, their writes fail and
	// the new resident does not move. A launch at full size moves no
	// epoch, one below it moves the epoch once, and a launch with a NaN
	// initial component or of a live name leaves the host as it was.
	f.Add([]byte{
		0, 0, 2, 2, 0, 1, 2, 2, 1, 0, 1, 1, // define vm-0, vm-1, start both
		2, 0, 3, 0, 0, 5, 2, 2, // undefine vm-0; define vm-5 into its slot
		1, 128, 4, 128, 3, 7, 0, 0, 5, 128, 2, 7, 128, 3, // vm-0's handle: start, limits, shares, load
		opLaunch, 1, 2, 2, 3, 4, 0, 0, // launch of the live vm-1
		opLaunch, 2, 2, 2, 10, 0, 0, 0, // launch of vm-2 with a NaN CPU
		opLaunch, 2, 2, 2, 0, 0, 0, 0, // vm-2 at its floor
		opLaunch, 3, 2, 2, 9, 9, 9, 9, // vm-3 above its size: full size
		3, 5, opLaunch, 6, 2, 3, 3, 7, 0, 0, // undefine vm-5; launch vm-6 into its slot
		1, 133, 4, 133, 3, 7, 0, 0, 1, 128, 7, 133, 2, // vm-5's and vm-0's handles
	})
	f.Add(mutatorMix(1, 40))
	f.Add(limitRewrites(2, 100))
	f.Add(loadWrites(3, 30))
	// Batched writes: four residents, one batch over three of them with
	// a repeat, one refused for a NaN, one that moves nothing, and one led
	// by vm-3's undefined handle.
	f.Add([]byte{
		0, 0, 2, 2, 0, 1, 2, 2, 0, 2, 2, 2, 0, 3, 2, 2, 1, 0, 1, 1, 1, 2, // define vm-0..3, start 0..2
		opBatch, 0, 3, 3, 8, 0, 0, 1, 4, 7, 0, 0, 2, 2, 0, 0, 0, 0, 2, 8, 0, 0, // vm-0, vm-1, vm-2, vm-0
		opBatch, 1, 1, 2, 0, 0, 0, 2, 10, 0, 0, 0, // vm-1, vm-2 with a NaN
		opBatch, 2, 0, 0, 0, 0, 0, // vm-2 with nothing engaged
		3, 3, opBatch, 131, 1, 5, 0, 0, 0, 0, 4, 0, 0, 0, // undefine vm-3; its handle, then vm-0
	})
	// A batch holding one undefined handle behind two live domains is
	// refused before any write: vm-0 and vm-1 keep their limits and rows.
	f.Add([]byte{
		0, 0, 2, 2, 0, 1, 2, 2, 0, 2, 2, 2, 1, 0, 1, 1, 1, 2, // define vm-0..2, start all three
		2, 2, 3, 2, // shut vm-2 down and undefine it
		opBatch, 0, 2, 3, 0, 0, 0, 1, 4, 4, 0, 0, 130, 2, 0, 0, 0, // vm-0, vm-1, then vm-2's handle
		opBatch, 1, 1, 3, 3, 0, 0, 130, 10, 0, 0, 0, // vm-1, then vm-2's handle with a NaN
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		runDomainOps(t, data, 8)
	})
}

// domainFold counts what a runDomainOps stream reached: ops run, peak
// residents, defines and launches into a freed slot, launches, and
// accepted multi-domain batches.
type domainFold struct {
	ops, peak, reuses, launches, batches int
}

// runDomainOps decodes data into ops on one host over a pool of names
// names and checks each against a naive model. An op is a kind byte
// (mod 8) and a name byte, whose top bit aims a Start, Shutdown, limit
// or load write at the name's last undefined handle; a pool wider than
// 128 names takes a second name byte. A define whose kind byte has bit
// 3 set is a Launch, its size bytes followed by the initial vector's. A
// limit write whose kind byte has bit 3 set is one Host.SetLimits
// batch: a count byte, the named domain's limits, then up to three more
// names with theirs (live ones, or undefined handles by the top bit).
// After every op: each live domain allocates min(size, positive
// limits), has its size and offers its last written load (zero for a
// negative or non-finite one); every handle ever undefined reads zero
// values; the host has one row per live domain plus its free slots; the
// view (its Load column included), every row and Aggregates() equal
// fresh derivations; the epoch moved by exactly one on a limit write or
// launch that moved a resident's allocation and not at all otherwise —
// a launch's rule is Define, Start and SetLimits of the clamped initial
// vector in turn; a rejected or allocation-neutral write and a load
// write moved no aggregate; a lifecycle call or limit write through an
// undefined handle failed with ErrNotFound; and a rejected op or an op
// on an undefined handle moved no row and no limit. When a define or
// launch takes a freed slot, every older handle to that slot also fails
// each lifecycle call, limit write and clamp with ErrNotFound, and its
// load write moves nothing.
func runDomainOps(t *testing.T, data []byte, names int) domainFold {
	in := fuzzBytes(data)
	h := testHost(t)
	// name decodes a name byte (and its second byte in a wide pool): the
	// name and whether its top bit is set.
	readName := func() (string, bool) {
		nb := int(in.next())
		id := nb % 128
		if names > 128 {
			id = id<<8 | int(in.next())
		}
		return fmt.Sprintf("vm-%d", id%names), nb >= 128
	}
	limits := func() (v resources.Vector) {
		for k := range v {
			v[k] = fuzzLimits[in.next()%byte(len(fuzzLimits))]
		}
		return v
	}
	// models holds the live domains by name; retired holds each name's
	// last undefined handle, which stays in the op stream; undefined
	// holds every handle ever undefined.
	models, retired := map[string]*domainModel{}, map[string]*domainModel{}
	var undefined []Domain
	var states []policy.VMState
	var view []Domain
	var fold domainFold
	agg := h.Aggregates() // as of the last op's checks
	for op := 0; len(in) > 0; op++ {
		kb := in.next()
		kind := kb % 8
		name, top := readName()
		m := models[name]
		stale := top && retired[name] != nil && (kind == 1 || kind == 2 || kind == 4 || kind == 5 || kind == 7)
		if stale {
			m = retired[name]
		}
		rowsBefore, freeBefore := slices.Clone(h.rows), slices.Clone(h.free)
		aggBefore := agg
		epoch := h.AllocEpoch()
		var before limitState
		if m != nil {
			before = limitStateOf(m.d)
		}
		// quiet marks an accepted op that may move no allocation of a
		// resident: it may move no aggregate.
		allocWrite, rejected, quiet := false, false, stale
		var opName string
		var err error
		switch kind {
		case 0: // define, or launch
			size := resources.New(fuzzCores[in.next()%byte(len(fuzzCores))], fuzzMemMB[in.next()%byte(len(fuzzMemMB))], 0, 0)
			cfg := DomainConfig{Name: name, Size: size, Deflatable: op%2 == 0, Priority: 0.5}
			launch := kb&8 != 0
			var initial resources.Vector
			var d Domain
			if launch {
				initial = limits()
				opName = fmt.Sprintf("launch %s %v at %v", name, size, initial)
				d, err = h.Launch(cfg, initial)
			} else {
				opName = fmt.Sprintf("define %s %v", name, size)
				var p *Domain
				if p, err = h.Define(cfg); p != nil {
					d = *p
				}
			}
			switch {
			case size.Get(resources.CPU) < 1 || size.Get(resources.Memory) < 256:
				if !errors.Is(err, ErrInvalid) {
					t.Fatalf("%s: err = %v, want ErrInvalid", opName, err)
				}
				rejected = true
			case m != nil:
				if !errors.Is(err, ErrExists) {
					t.Fatalf("%s: err = %v, want ErrExists", opName, err)
				}
				rejected = true
			case launch && slices.ContainsFunc(initial[:], func(x float64) bool { return !(x >= 0) }):
				if !errors.Is(err, ErrInvalid) {
					t.Fatalf("%s: err = %v, want ErrInvalid", opName, err)
				}
				rejected = true
			case err != nil:
				t.Fatalf("%s: %v", opName, err)
			default:
				m = &domainModel{d: d, size: size, state: Defined}
				if launch {
					// Define, Start, then SetLimits of the clamped initial
					// vector: the epoch moves iff the allocation left the size.
					m.state, m.limits = Running, initial.Clamp(DefaultFloor(), size)
					allocWrite = m.alloc() != size
					fold.launches++
				}
				models[name] = m
				if int(d.slot) < len(rowsBefore) {
					fold.reuses++
					checkStaleHandles(t, h, d, undefined, opName)
				}
			}
		case 1, 2: // start, shutdown
			if m == nil {
				continue
			}
			opName = "start " + name
			if kind == 2 {
				opName = "shutdown " + name
				err = m.d.Shutdown()
			} else {
				err = m.d.Start()
			}
			switch {
			case stale:
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("%s through an undefined handle: err = %v, want ErrNotFound", opName, err)
				}
				rejected = true
			case ((kind == 1) == (m.state == Running)) != errors.Is(err, ErrState):
				t.Fatalf("%s in state %v: err = %v", opName, m.state, err)
			}
			if err == nil && kind == 1 {
				m.state = Running
			} else if err == nil {
				m.state = Shutoff
			}
		case 3: // undefine
			opName = "undefine " + name
			err = h.Undefine(name)
			switch {
			case m == nil:
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("%s with no live domain: err = %v, want ErrNotFound", opName, err)
				}
				rejected = true
			case (m.state == Running) != errors.Is(err, ErrState):
				t.Fatalf("%s in state %v: err = %v", opName, m.state, err)
			case err == nil:
				delete(models, name)
				retired[name] = &domainModel{d: m.d}
				undefined = append(undefined, m.d)
			}
		case 4, 5: // limits (one domain, or a batch), one CPU share
			if m == nil {
				continue
			}
			// lims holds the requested limits; got, what a limit write
			// returned for each entry; undef, which entries are undefined
			// handles.
			batch, undef := []*domainModel{m}, []bool{stale}
			var lims, got []resources.Vector
			switch {
			case kind == 5:
				var v resources.Vector
				v[resources.CPU] = fuzzLimits[in.next()%byte(len(fuzzLimits))]
				lims = append(lims, v)
				opName = fmt.Sprintf("shares %s %g", name, v[resources.CPU])
				err = m.d.SetCPUShares(v[resources.CPU])
			case kb&8 == 0:
				lims = append(lims, limits())
				opName = fmt.Sprintf("limits %s %v", name, lims[0])
				var a resources.Vector
				a, err = m.d.SetLimits(lims[0])
				got = []resources.Vector{a}
			default:
				n := 1 + int(in.next()%4)
				lims = append(lims, limits())
				for range n - 1 {
					other, top := readName()
					v := limits()
					o, u := models[other], top && retired[other] != nil
					if u {
						o = retired[other]
					}
					if o != nil {
						batch, lims, undef = append(batch, o), append(lims, v), append(undef, u)
						stale = stale || u
					}
				}
				doms := make([]Domain, len(batch))
				for i, b := range batch {
					doms[i] = b.d
				}
				opName = fmt.Sprintf("batched limits %s+%d %v", name, len(batch)-1, lims)
				got = slices.Clone(lims)
				err = h.SetLimits(doms, got)
			}
			// The first bad entry in batch order refuses the whole write:
			// an undefined handle with ErrNotFound, a negative or NaN
			// component (or a zero CPU share) with ErrInvalid.
			var want error
			for i, v := range lims {
				if undef[i] {
					want = ErrNotFound
				}
				for k, x := range v {
					if want == nil && (!(x >= 0) || kind == 5 && k == int(resources.CPU) && x == 0) {
						want = ErrInvalid
					}
				}
				if want != nil {
					break
				}
			}
			if (want == nil) != (err == nil) || want != nil && !errors.Is(err, want) {
				t.Fatalf("%s: err = %v, want %v", opName, err, want)
			}
			if want != nil {
				rejected = true
				break
			}
			// The write moves the epoch once if it moved a resident's
			// allocation; a limit write returns each entry's allocation
			// after its write, in batch order.
			for i, b := range batch {
				prev := b.alloc()
				for k, x := range lims[i] {
					if x > 0 {
						b.limits[k] = x
					}
				}
				allocWrite = allocWrite || b.alloc() != prev
				if got != nil && got[i] != b.alloc() {
					t.Fatalf("%s: entry %d returned %v, the model %v", opName, i, got[i], b.alloc())
				}
			}
			if len(batch) > 1 {
				fold.batches++
			}
			quiet = !allocWrite
		case 6: // no op: a host has one capacity, and the byte that
			// once scaled it is skipped, so older inputs decode alike
			in.next()
			opName = "no-op"
			quiet = true
		case 7: // a sample pass's load write
			if m == nil {
				continue
			}
			v := fuzzLoads[in.next()%byte(len(fuzzLoads))]
			opName = fmt.Sprintf("load %s %g", name, v)
			m.d.SetOfferedLoad(v)
			if !stale {
				m.load = v
				if !(v >= 0) || math.IsInf(v, 0) {
					m.load = 0
				}
			}
			quiet = true
		}
		if stale {
			opName += " (undefined handle)"
		}

		switch now := h.AllocEpoch(); {
		case allocWrite && now != epoch+1:
			t.Fatalf("after %s: allocation write moved the epoch %d -> %d, want +1", opName, epoch, now)
		case !allocWrite && now != epoch:
			t.Fatalf("after %s: the epoch moved %d -> %d without an allocation write", opName, epoch, now)
		}
		if rejected && m != nil {
			if after := limitStateOf(m.d); after != before {
				t.Fatalf("after rejected %s: state moved %+v -> %+v", opName, before, after)
			}
		}
		if rejected || quiet {
			if now := h.Aggregates(); now != aggBefore {
				t.Fatalf("after %s (rejected %v): aggregates moved %+v -> %+v, but no allocation moved", opName, rejected, aggBefore, now)
			}
		}
		if (rejected || stale) && (!slices.Equal(h.rows, rowsBefore) || !slices.Equal(h.free, freeBefore)) {
			t.Fatalf("after %s (rejected %v): the row table moved", opName, rejected)
		}
		for _, d := range undefined {
			checkReadsZero(t, d, opName)
		}
		for n, m := range models {
			if got, want := m.d.Allocation(), m.alloc(); got != want || m.d.MaxSize() != m.size {
				t.Fatalf("after %s: %s of size %v allocates %v, the model %v of size %v", opName, n, m.d.MaxSize(), got, want, m.size)
			}
			if got := m.d.State(); got != m.state {
				t.Fatalf("after %s: %s is %v, the model %v", opName, n, got, m.state)
			}
			if got := m.d.Config().Load; got != m.load {
				t.Fatalf("after %s: %s offers load %g, the model %g", opName, n, got, m.load)
			}
		}
		if len(h.rows)-len(h.free) != len(models) {
			t.Fatalf("after %s: %d rows, %d of them free, for %d live domains", opName, len(h.rows), len(h.free), len(models))
		}
		states, view = h.AppendDeflatableView(states[:0], view[:0])
		for i, st := range states {
			if m := models[st.Name]; m == nil || m.d != view[i] || st.Load != m.load {
				t.Fatalf("after %s: the view reads %s at load %g, not its last write", opName, st.Name, st.Load)
			}
		}
		checkView(t, h, opName, states, view)
		checkRows(t, h, opName)
		agg = checkAggregates(t, h, opName)
		fold.ops, fold.peak = op+1, max(fold.peak, len(models))
	}
	return fold
}

// checkReadsZero fails unless the undefined handle d reads zero values.
func checkReadsZero(t *testing.T, d Domain, op string) {
	t.Helper()
	if d.Config() != (DomainConfig{}) || d.Allocation() != (resources.Vector{}) || d.State() != Defined {
		t.Fatalf("after %s: an undefined handle reads %+v allocating %v in state %v, want zero values",
			op, d.Config(), d.Allocation(), d.State())
	}
}

// checkStaleHandles drives every handle in undefined that names fresh's
// slot, which a define or launch has just handed to fresh: each reads
// zero values, fails every lifecycle call, limit write and clamp with
// ErrNotFound, and moves nothing with a load write — not fresh's row,
// not the epoch.
func checkStaleHandles(t *testing.T, h *Host, fresh Domain, undefined []Domain, op string) {
	t.Helper()
	rowBefore, epoch := h.rows[fresh.slot], h.AllocEpoch()
	for _, d := range undefined {
		if d.slot != fresh.slot {
			continue
		}
		checkReadsZero(t, d, op)
		_, errClamp := d.ClampTarget(resources.New(1, 512, 0, 0))
		_, errLimits := d.SetLimits(resources.New(1, 512, 0, 0))
		for i, err := range []error{d.Start(), d.Shutdown(), d.SetCPUShares(1), errLimits, errClamp,
			h.SetLimits([]Domain{fresh, d}, make([]resources.Vector, 2))} {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("after %s: write %d through an older handle to slot %d: err = %v, want ErrNotFound", op, i, d.slot, err)
			}
		}
		d.SetOfferedLoad(5)
	}
	if h.rows[fresh.slot] != rowBefore || h.AllocEpoch() != epoch {
		t.Fatalf("after %s: an older handle to slot %d moved its new resident or the epoch", op, fresh.slot)
	}
}

// domainOps encodes a FuzzDomainOps input op by op: a kind byte, a name
// byte (vm-0 to vm-7, plus 128 for the name's last undefined handle) and
// the op's argument bytes, indexes into the fuzz tables.
type domainOps []byte

const (
	opDefine = iota
	opStart
	opShutdown
	opUndefine
	opLimits
	opShares
	_ // 6 is a no-op kind (runDomainOps)
	opLoad
)

func (o *domainOps) op(kind, name int, args ...int) {
	*o = append(*o, byte(kind), byte(name))
	for _, a := range args {
		*o = append(*o, byte(a))
	}
}

// limitIdx draws an index into fuzzLimits; loadIdx one into fuzzLoads.
func limitIdx(rng *rand.Rand) int { return rng.Intn(len(fuzzLimits)) }
func loadIdx(rng *rand.Rand) int  { return rng.Intn(len(fuzzLoads)) }

// mutatorMix is every mutator against one host, round after round:
// running residents on the even names take single and batched limit
// writes and load writes, the last of them flips between running and
// shut off. Each round also brings up one of the odd names, between the
// residents in name order — defined, started and written in even
// rounds, launched below its size in odd ones — and shuts down and
// undefines the previous round's, whose slot the next round's name
// takes; the undefined handle then takes one more write.
func mutatorMix(seed int64, rounds int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var o domainOps
	residents := []int{0, 2, 4, 6}
	for _, n := range residents {
		o.op(opDefine, n, 5, 3) // 7.5 cores, 4096 MB
		o.op(opStart, n)
	}
	for r := range rounds {
		if d := residents[rng.Intn(len(residents))]; r%2 == 0 {
			o.op(opLimits, d, limitIdx(rng), limitIdx(rng), limitIdx(rng), limitIdx(rng))
		} else {
			o.op(opShares, d, limitIdx(rng))
		}
		o.op(opLoad, residents[rng.Intn(len(residents))], loadIdx(rng))
		if r%2 == 0 {
			o.op(opShutdown, 6)
		} else {
			o.op(opStart, 6)
		}
		churn := 1 + 2*(r%4)
		if r%2 == 0 {
			o.op(opDefine, churn, 2, 3) // 2 cores, 4096 MB
			o.op(opStart, churn)
			o.op(opShares, churn, 3)
		} else {
			o.op(opLaunch, churn, 2, 3, 3, limitIdx(rng), 0, 0) // 1.5 cores
		}
		if r > 0 {
			prev := 1 + 2*((r-1)%4)
			o.op(opShutdown, prev)
			o.op(opUndefine, prev)
			o.op(opShares, prev+128, 3)
		}
	}
	return o
}

// limitRewrites is one running domain whose limits are rewritten, one
// controller and then all four at a time, accepted and refused values
// alike.
func limitRewrites(seed int64, rounds int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var o domainOps
	o.op(opDefine, 0, 5, 3)
	o.op(opStart, 0)
	for range rounds {
		o.op(opShares, 0, limitIdx(rng))
		o.op(opLimits, 0, limitIdx(rng), 8, 0, 0) // memory capped at 2048 MB
	}
	return o
}

// loadWrites is eight running residents, half of them deflatable, whose
// loads are rewritten every round while a limit write moves one of them:
// the view must read each load's last write through.
func loadWrites(seed int64, rounds int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var o domainOps
	for n := range 8 {
		o.op(opDefine, n, 2, 3)
	}
	for n := range 8 {
		o.op(opStart, n)
	}
	for r := range rounds {
		for n := range 8 {
			o.op(opLoad, n, loadIdx(rng))
		}
		o.op(opShares, 0, 3+r%2) // 1.5 or 2 cores
	}
	return o
}

// wide appends one op of a stream over a pool wider than 128 names:
// the kind byte, the name's index in two bytes, then the arguments.
func (o *domainOps) wide(kind, name int, args ...int) {
	*o = append(*o, byte(kind), byte(name>>8), byte(name))
	for _, a := range args {
		*o = append(*o, byte(a))
	}
}

const (
	opLaunch  = opDefine | 8 // a Launch: size bytes, then the initial vector's
	opBatch   = opLimits | 8 // a limit write as one Host.SetLimits batch
	hostNames = 1024         // hostMix's name pool
)

// hostMix is a long stream over hostNames names: defines (most then
// started) and launches of fresh names drawn out of order and of
// undefined ones, so most insert mid-order and, once undefines have
// begun, into a freed slot; undefines, each of a shut-off domain; CPU shares,
// one-domain limit writes and batched writes over up to four residents
// (repeats allowed); lifecycle flips; and load writes. Defines
// outnumber undefines four to one, so the table grows to hundreds of
// rows.
func hostMix(seed int64, ops int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var o domainOps
	var live, retired []int
	running := map[int]bool{}
	// limits draws one write's four components, none negative or NaN.
	limits := func() []int {
		var v []int
		for range 4 {
			v = append(v, []int{0, 2, 3, 4, 5, 6, 7, 8, 9}[rng.Intn(9)])
		}
		return v
	}
	for range ops {
		k, n := 0, 0 // an empty host takes a define
		if len(live) > 0 {
			k, n = rng.Intn(13), live[rng.Intn(len(live))]
		}
		switch {
		case k >= 10:
			o.wide(opLoad, n, loadIdx(rng))
		case k <= 3: // define, and most often start
			if i := rng.Intn(3 * (len(retired) + 1)); i < len(retired) {
				n = retired[i]
				retired = slices.Delete(retired, i, i+1)
			} else {
				for n = rng.Intn(hostNames); slices.Contains(live, n) || slices.Contains(retired, n); n = rng.Intn(hostNames) {
				}
			}
			cores, mem := 1+rng.Intn(5), 1+rng.Intn(3) // 1 to 7.5 cores, 256 to 4096 MB
			live = append(live, n)
			switch rng.Intn(5) {
			case 0:
				o.wide(opDefine, n, cores, mem)
			case 1:
				o.wide(opLaunch, n, append([]int{cores, mem}, limits()...)...)
				running[n] = true
			default:
				o.wide(opDefine, n, cores, mem)
				o.wide(opStart, n)
				running[n] = true
			}
		case k <= 7:
			switch rng.Intn(4) {
			case 0:
				o.wide(opShares, n, limitIdx(rng))
			case 1:
				o.wide(opLimits, n, limits()...)
			default:
				others := rng.Intn(4)
				args := append([]int{others}, limits()...)
				for range others {
					m := live[rng.Intn(len(live))]
					args = append(append(args, m>>8, m), limits()...)
				}
				o.wide(opBatch, n, args...)
			}
		case k == 8:
			if running[n] {
				o.wide(opShutdown, n)
			} else {
				o.wide(opStart, n)
			}
			running[n] = !running[n]
		default: // undefine, shutting down first
			if running[n] {
				o.wide(opShutdown, n)
				running[n] = false
			}
			o.wide(opUndefine, n)
			live = slices.DeleteFunc(live, func(m int) bool { return m == n })
			retired = append(retired, n)
		}
	}
	return o
}

// runHostMix runs hostMix(seed, 2200) through runDomainOps, which must
// reuse freed slots, launch and accept batched writes.
func runHostMix(t *testing.T, seed int64) {
	f := runDomainOps(t, hostMix(seed, 2200), hostNames)
	if f.reuses == 0 || f.launches == 0 || f.batches == 0 {
		t.Errorf("vacuous stream: %+v", f)
	}
	t.Logf("%d ops, at most %d live domains: %+v", f.ops, f.peak, f)
}

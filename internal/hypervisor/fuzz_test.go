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
// op sequence engaged, nothing read back from the domain.
type domainModel struct {
	d      *Domain
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
// Define (invalid sizes included), Start, Shutdown, Undefine, SetLimits
// (zero, negative and NaN components included), SetCPUShares,
// SetCapacity and SetOfferedLoad (negative and non-finite loads
// included) over a pool of eight names, against a naive model. Every
// op is a kind byte and a name byte; a name byte with its top bit set
// aims a Start, Shutdown, limit or load write at the name's last
// undefined handle instead of its live domain. After every op: each
// domain's allocation, live or undefined, is min(size, positive limits),
// and its offered load is the last one written (zero for a negative or
// non-finite one); the deflatable view equals a fresh walk, and its
// Load column holds each resident's last written load; every row column
// equals a fresh derivation and the table is dense; Aggregates() equals
// a name-order recomputation; the allocation epoch
// moved by exactly one on a limit write that moved a resident's
// allocation and not at all otherwise; a rejected write, or a limit
// write that moved no allocation, and a load write moved nothing, not
// even the aggregates; and an op on an undefined handle moved no row,
// aggregate or epoch. The last three seeds are op mixes written with
// domainOps: every mutator against one host, limit rewrites on one
// domain, and load writes read through the view.
//
//	go test -run '^$' -fuzz FuzzDomainOps -fuzztime 15s -fuzzminimizetime 200x ./internal/hypervisor
func FuzzDomainOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 3, 2, 1, 0, 2, 0, 4, 3, 0, 5, 0, 7, 0, 2, 8, 0, 1})
	f.Add([]byte{0, 1, 4, 3, 1, 1, 2, 1, 3, 4, 0, 6, 1, 2, 3, 1, 1, 5, 1, 1, 2, 2, 2, 3, 1})
	f.Add([]byte{0, 2, 0, 0, 0, 2, 5, 1, 1, 2, 3, 2, 6, 7, 8, 2, 4, 2, 1, 4, 3, 2, 3, 2})
	// Undefine the middle resident of three while the last-defined one
	// holds the table's last row, then write the moved domain's limits
	// and flip it, drive the undefined handle, redefine its name and
	// drive the old handle once more.
	f.Add([]byte{
		0, 0, 2, 2, 0, 1, 2, 2, 0, 2, 2, 2, // define vm-0, vm-1, vm-2
		1, 0, 1, 1, 1, 2, 4, 2, 3, 7, 0, 0, // start all three; limits on vm-2
		2, 1, 3, 1, // shut vm-1 down and undefine it: vm-2 moves into its slot
		4, 2, 2, 6, 0, 0, 5, 2, 4, 2, 2, 1, 2, // vm-2: limits, shares, shutdown, start
		1, 129, 4, 129, 3, 7, 0, 0, 5, 129, 2, 2, 129, // the undefined vm-1 handle
		0, 1, 2, 3, 1, 1, 4, 129, 5, 6, 0, 0, // redefine vm-1; the old handle again
	})
	// Name order is not row order: vm-1, defined last, sorts first. Undefine
	// vm-6 (row 0) and then vm-3 (row 1): vm-1 and then vm-7 move, each
	// re-pointed at a different position of the name order, and each is
	// written after its move.
	f.Add([]byte{
		0, 6, 2, 2, 0, 3, 2, 2, 0, 7, 2, 2, 0, 1, 2, 2, // define vm-6, vm-3, vm-7, vm-1
		3, 6, 4, 1, 3, 7, 0, 0, 1, 1, // undefine vm-6; limits on vm-1 and start it
		3, 3, 4, 7, 2, 6, 0, 0, 1, 7, 2, 7, 1, 7, // undefine vm-3; vm-7: limits, start, shutdown, start
		4, 134, 3, 7, 0, 0, 1, 131, 2, 131, 5, 134, 4, // the undefined vm-6 and vm-3 handles
		2, 1, 3, 1, 2, 7, 3, 7, // shut down and undefine vm-1, then vm-7: the table empties
	})
	f.Add(mutatorMix(1, 40))
	f.Add(limitRewrites(2, 100))
	f.Add(loadWrites(3, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		h := testHost(t)
		base := h.Capacity()
		// models holds the live domains by name; retired holds each name's
		// last undefined handle, which stays in the op stream.
		models, retired := map[string]*domainModel{}, map[string]*domainModel{}
		var states []policy.VMState
		var view []*Domain
		for op := 0; len(in) > 0; op++ {
			kind, nb := in.next()%8, in.next()
			name := fmt.Sprintf("vm-%d", nb%8)
			m := models[name]
			stale := nb >= 128 && retired[name] != nil && (kind == 1 || kind == 2 || kind == 4 || kind == 5 || kind == 7)
			var rowsBefore []row
			if stale {
				m = retired[name]
				rowsBefore = slices.Clone(h.rows)
			}
			aggBefore := h.Aggregates()
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
			case 0: // define
				size := resources.New(fuzzCores[in.next()%byte(len(fuzzCores))], fuzzMemMB[in.next()%byte(len(fuzzMemMB))], 0, 0)
				opName = fmt.Sprintf("define %s %v", name, size)
				var d *Domain
				d, err = h.Define(DomainConfig{Name: name, Size: size, Deflatable: op%2 == 0, Priority: 0.5})
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
				case err != nil:
					t.Fatalf("%s: %v", opName, err)
				default:
					models[name] = &domainModel{d: d, size: size, state: Defined}
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
				if wantErr := (kind == 1) == (m.state == Running); wantErr != errors.Is(err, ErrState) {
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
					retired[name] = m
				}
			case 4, 5: // batched limits, one CPU share
				if m == nil {
					continue
				}
				var v resources.Vector
				if kind == 4 {
					for k := range v {
						v[k] = fuzzLimits[in.next()%byte(len(fuzzLimits))]
					}
					opName = fmt.Sprintf("limits %s %v", name, v)
					_, err = m.d.SetLimits(v)
				} else {
					v[resources.CPU] = fuzzLimits[in.next()%byte(len(fuzzLimits))]
					opName = fmt.Sprintf("shares %s %g", name, v[resources.CPU])
					err = m.d.SetCPUShares(v[resources.CPU])
				}
				invalid := false
				for _, x := range v {
					invalid = invalid || !(x >= 0)
				}
				if kind == 5 {
					invalid = !(v[resources.CPU] > 0)
				}
				if invalid != errors.Is(err, ErrInvalid) {
					t.Fatalf("%s: err = %v, want ErrInvalid: %v", opName, err, invalid)
				}
				if invalid {
					rejected = true
					break
				}
				prev := m.alloc()
				for k, x := range v {
					if x > 0 {
						m.limits[k] = x
					}
				}
				// One limit write moves the epoch only if it moved a
				// resident's allocation.
				allocWrite = !stale && m.alloc() != prev
				quiet = !allocWrite
			case 6: // the provider resizes the server
				opName = "resize"
				if err := h.SetCapacity(base.Scale(0.5 + float64(in.next()%4)/4)); err != nil {
					t.Fatal(err)
				}
			case 7: // a sample pass's load write
				if m == nil {
					continue
				}
				v := fuzzLoads[in.next()%byte(len(fuzzLoads))]
				opName = fmt.Sprintf("load %s %g", name, v)
				m.d.SetOfferedLoad(v)
				m.load = v
				if !(v >= 0) || math.IsInf(v, 0) {
					m.load = 0
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
			if agg := h.Aggregates(); (rejected || quiet) && agg != aggBefore {
				t.Fatalf("after %s (rejected %v): aggregates moved %+v -> %+v, but no allocation moved", opName, rejected, aggBefore, agg)
			}
			if stale {
				if !slices.Equal(h.rows, rowsBefore) {
					t.Fatalf("after %s: the row table moved", opName)
				}
				if agg := h.Aggregates(); agg != aggBefore {
					t.Fatalf("after %s: aggregates moved %+v -> %+v", opName, aggBefore, agg)
				}
			}
			for _, set := range []map[string]*domainModel{models, retired} {
				for n, m := range set {
					if got, want := m.d.Allocation(), m.alloc(); got != want {
						t.Fatalf("after %s: %s allocates %v, the model %v", opName, n, got, want)
					}
					if got := m.d.State(); got != m.state {
						t.Fatalf("after %s: %s is %v, the model %v", opName, n, got, m.state)
					}
					if got := m.d.load; got != m.load || m.d.Config().Load != m.load {
						t.Fatalf("after %s: %s offers load %g, the model %g", opName, n, got, m.load)
					}
				}
			}
			states, view = h.AppendDeflatableView(states[:0], view[:0])
			for i, st := range states {
				if m := models[st.Name]; m == nil || m.d != view[i] || st.Load != m.load {
					t.Fatalf("after %s: the view reads %s at load %g, not its last write", opName, st.Name, st.Load)
				}
			}
			checkView(t, h, opName)
			checkRows(t, h, opName)
			checkAggregates(t, h, opName)
		}
	})
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
	opResize
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
// shut off, and every fifth round resizes the host. Each round also
// defines, starts and writes one of the odd names, between the
// residents in name order, and shuts down and undefines the previous
// round's, whose row is no longer the table's last, so the undefine
// moves the newer one into its slot; the undefined handle then takes
// one more write.
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
		if r%5 == 0 {
			o.op(opResize, 0, rng.Intn(4))
		}
		churn := 1 + 2*(r%4)
		o.op(opDefine, churn, 2, 3) // 2 cores, 4096 MB
		o.op(opStart, churn)
		o.op(opShares, churn, 3)
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

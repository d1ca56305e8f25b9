package mechanism

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"vmdeflate/internal/guestos"
	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/resources"
)

// guestDomain is the former model of a VM that kept its guest inside
// the domain, kept here as the oracle the mechanisms are held to: the
// allocation derived as min(size, online vCPUs, plugged memory, engaged
// limits); each hotplug step refused with ErrState unless the domain is
// running; the limit write engaging every positive component of the
// clamped target, uncapped; and swap pressure read at the engaged memory
// limit (zero when none is engaged).
type guestDomain struct {
	d       *hypervisor.Domain // for ClampTarget only, a pure function of the configuration
	size    resources.Vector
	running bool
	limits  resources.Vector
	g       guestos.GuestOS
}

// derive is the former Domain.derive with its guest branch.
func (m *guestDomain) derive() resources.Vector {
	a := m.size
	if on := float64(m.g.OnlineVCPUs()); on < a[resources.CPU] {
		a[resources.CPU] = on
	}
	a[resources.Memory] = m.g.PluggedMemoryMB()
	for k, l := range m.limits {
		if l > 0 && l < a[k] {
			a[k] = l
		}
	}
	return a
}

// hotplug is the former Domain hotplug: ErrState on a domain that is
// not running, else the guest operation.
func (m *guestDomain) hotplug(op func()) error {
	if !m.running {
		return hypervisor.ErrState
	}
	op()
	return nil
}

// apply is the former Transparent / Hybrid Apply on this model.
func (m *guestDomain) apply(hybrid bool, target resources.Vector) (resources.Vector, error) {
	t, err := m.d.ClampTarget(target)
	if err != nil {
		return resources.Vector{}, ErrTarget
	}
	if hybrid {
		want := max(int(math.Ceil(t[resources.CPU]-1e-9)), 1)
		var err error
		switch on := m.g.OnlineVCPUs(); {
		case on > want:
			err = m.hotplug(func() { m.g.UnplugVCPUs(on - want) })
		case on < want:
			err = m.hotplug(func() { m.g.PlugVCPUs(want - on) })
		}
		if err != nil {
			return resources.Vector{}, err
		}
		mb := math.Max(m.g.RSSMB(), t[resources.Memory])
		switch plugged := m.g.PluggedMemoryMB(); {
		case plugged > mb:
			err = m.hotplug(func() { m.g.UnplugMemory(plugged - mb) })
		case plugged < mb:
			err = m.hotplug(func() { m.g.PlugMemory(mb - plugged) })
		}
		if err != nil {
			return resources.Vector{}, err
		}
	}
	for k, x := range t {
		if x > 0 {
			m.limits[k] = x
		}
	}
	return m.derive(), nil
}

// swapPressure is the former Domain.SwapPressure: read at the engaged
// memory limit.
func (m *guestDomain) swapPressure() float64 {
	if l := m.limits[resources.Memory]; l > 0 {
		return m.g.SwapPressure(l)
	}
	return 0
}

// errClass names an error by the sentinel it wraps.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrTarget):
		return "ErrTarget"
	case errors.Is(err, hypervisor.ErrState):
		return "ErrState"
	}
	return "other: " + err.Error()
}

// mechFuzzSizes are the domains a fuzz input starts from: Fig 3's VM,
// Fig 14's, the 8-core VM of the hand-written tests, and a fractional
// one whose CPU draws (mechFuzzCores) reach below DefaultFloor.
var mechFuzzSizes = [...]hypervisor.DomainConfig{
	{Size: resources.New(8, 32768, 200, 2000)},
	{Size: resources.New(8, 16384, 200, 2000)},
	{Size: resources.New(8, 16384, 100, 1000)},
	{Size: resources.New(2.6, 1000, 0, 50)},
}

// mechFuzzCores are the CPU components an explicit target draws:
// fractional, whole, below the floor, above the size, negative and NaN.
var mechFuzzCores = [...]float64{0, 0.03, 0.5, 1, 1.5, 2.4, 2.5, 3, 4, 4.7, 6, 8, 12, -1, math.NaN()}

// fuzzFrac decodes a byte as a fraction of 200 (so up to 1.275 of a
// size), with 254 and 255 for a negative and a NaN component.
func fuzzFrac(b byte) float64 {
	switch b {
	case 254:
		return -1
	case 255:
		return math.NaN()
	}
	return float64(b) / 200
}

// FuzzMechanismMatchesGuestDerive drives a domain and the guest booted
// beside it through byte-decoded Transparent and Hybrid applies — whole
// Fig 3 deflations (DeflateByFraction), Fig 14 memory-only deflations,
// and explicit targets with fractional CPU and memory either side of the
// RSS threshold and of 128 MB blocks — workload installs, shutdowns,
// starts and fresh domains, and a guestDomain model through the same
// ops. After every op the error classes, the achieved allocation, the
// domain's allocation, the guest's online vCPUs and plugged memory, and
// the swap pressure and cache loss (read at the domain's memory
// allocation) must equal the model's, bit for bit.
//
//	go test -run '^$' -fuzz FuzzMechanismMatchesGuestDerive -fuzztime 15s -fuzzminimizetime 200x ./internal/mechanism
func FuzzMechanismMatchesGuestDerive(f *testing.F) {
	const (
		opScale    = iota // mech, pct: DeflateByFraction(pct/100)
		opMemory          // mech, pct: Fig 14's memory-only target
		opTarget          // mech, cores, memory, I/O: an explicit target
		opWorkload        // rss, cache as percentages of memory
		opShutdown
		opStart
		opFresh // a new domain and guest of the same size
		opKinds
	)
	// Fig 3: each application's footprint, then every Transparent point.
	for _, wl := range [][2]byte{{55, 5}, {20, 40}, {80, 2}} {
		seed := []byte{0, opWorkload, wl[0], wl[1]}
		for pct := byte(10); pct < 100; pct += 10 {
			seed = append(seed, opScale, 0, pct)
		}
		f.Add(seed)
	}
	// Fig 14: SpecJBB on a fresh VM at every point, per mechanism.
	for mech := byte(0); mech < 2; mech++ {
		seed := []byte{1}
		for pct := byte(0); pct < 50; pct += 5 {
			seed = append(seed, opFresh, opWorkload, 55, 5, opMemory, mech, pct)
		}
		f.Add(seed)
	}
	// TestCombinedTransparentAndExplicit: hotplug to 4 vCPUs, cap at 2.5
	// cores, raise the cap to 6.
	f.Add([]byte{2, opTarget, 1, 8, 200, 200, opTarget, 0, 6, 200, 200, opTarget, 0, 10, 200, 200})
	// A Fig 14 hybrid point, then a transparent write of the full size:
	// the VM stays at what its guest has plugged.
	f.Add([]byte{1, opWorkload, 55, 5, opMemory, 1, 30, opScale, 0, 0})
	// Hybrid on a shut-off VM, below RSS, then reinflated once running.
	f.Add([]byte{3, opWorkload, 40, 30, opTarget, 1, 2, 60, 100, opShutdown, opTarget, 1, 6, 200, 200, opStart, opScale, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		in := data
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		cfg := mechFuzzSizes[next()%byte(len(mechFuzzSizes))]
		cfg.Name, cfg.Deflatable, cfg.Priority = "vm", true, 0.5
		size := cfg.Size
		var (
			d *hypervisor.Domain
			g *guestos.GuestOS
			m guestDomain
		)
		fresh := func() {
			var err error
			if d, g, err = defineWithGuest(cfg, true); err != nil {
				t.Fatal(err)
			}
			m = guestDomain{d: d, size: size, running: true, g: *g}
		}
		fresh()
		for op := 0; len(in) > 0; op++ {
			var opName string
			var got, want resources.Vector
			var err, werr error
			switch kind := next() % opKinds; kind {
			case opScale, opMemory, opTarget:
				var mech Mechanism = Transparent{}
				if next()%2 == 1 {
					mech = Hybrid{}
				}
				var target resources.Vector
				switch kind {
				case opScale:
					pct := float64(next() % 128) // 100 and above are refused
					opName = fmt.Sprintf("%s by %g%%", mech.Name(), pct)
					got, err = DeflateByFraction(mech, d, g, pct/100)
					target = size.Scale(1 - pct/100)
					if pct >= 100 {
						target = resources.Vector{-1} // DeflateByFraction refuses it with ErrTarget
					}
				case opMemory:
					pct := float64(next() % 128)
					target = size.With(resources.Memory, (1-pct/100)*size.Get(resources.Memory))
				case opTarget:
					target = resources.New(mechFuzzCores[next()%byte(len(mechFuzzCores))],
						fuzzFrac(next())*size.Get(resources.Memory),
						fuzzFrac(next())*size.Get(resources.DiskBW), size.Get(resources.NetBW))
				}
				if kind != opScale {
					opName = fmt.Sprintf("%s to %v", mech.Name(), target)
					got, err = mech.Apply(d, g, target)
				}
				want, werr = m.apply(mech.Name() == "hybrid", target)
			case opWorkload:
				rss, cache := float64(next())/100*size.Get(resources.Memory), float64(next())/100*size.Get(resources.Memory)
				opName = fmt.Sprintf("workload rss %g cache %g", rss, cache)
				err, werr = g.SetWorkload(rss, cache), m.g.SetWorkload(rss, cache)
			case opShutdown, opStart:
				if kind == opShutdown {
					opName, err = "shutdown", d.Shutdown()
				} else {
					opName, err = "start", d.Start()
				}
				if (kind == opStart) == m.running {
					werr = hypervisor.ErrState
				}
				m.running = m.running != (werr == nil)
			case opFresh:
				opName = "fresh domain"
				fresh()
			}
			if ec, wc := errClass(err), errClass(werr); ec != wc {
				t.Fatalf("op %d %s: err %v (%s), the model %s", op, opName, err, ec, wc)
			}
			if got != want {
				t.Fatalf("op %d %s: achieved %v, the model %v", op, opName, got, want)
			}
			alloc := d.Allocation()
			if a := m.derive(); alloc != a {
				t.Fatalf("op %d %s: allocation %v, the model derives %v", op, opName, alloc, a)
			}
			if g.OnlineVCPUs() != m.g.OnlineVCPUs() || g.PluggedMemoryMB() != m.g.PluggedMemoryMB() || g.RSSMB() != m.g.RSSMB() {
				t.Fatalf("op %d %s: guest %d vCPUs / %v MB / RSS %v, the model %d / %v / %v", op, opName,
					g.OnlineVCPUs(), g.PluggedMemoryMB(), g.RSSMB(), m.g.OnlineVCPUs(), m.g.PluggedMemoryMB(), m.g.RSSMB())
			}
			mem := alloc.Get(resources.Memory)
			if p, w := g.SwapPressure(mem), m.swapPressure(); math.Float64bits(p) != math.Float64bits(w) {
				t.Fatalf("op %d %s: swap pressure %v at the allocation, the model %v at the limit", op, opName, p, w)
			}
			if c, w := g.CacheLoss(mem), m.g.CacheLoss(m.derive().Get(resources.Memory)); math.Float64bits(c) != math.Float64bits(w) {
				t.Fatalf("op %d %s: cache loss %v, the model %v", op, opName, c, w)
			}
			if (d.State() == hypervisor.Running) != m.running {
				t.Fatalf("op %d %s: domain is %v, the model running: %v", op, opName, d.State(), m.running)
			}
		}
	})
}

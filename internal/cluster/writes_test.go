package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vmdeflate/internal/hypervisor"
	"vmdeflate/internal/mechanism"
	"vmdeflate/internal/notify"
	"vmdeflate/internal/policy"
	"vmdeflate/internal/resources"
)

// The policy passes' writes as they were before one limit write covered
// a pass: every target through mechanism.Transparent.Apply, one domain
// (one write call, one epoch bump, one invalidation) at a time,
// each event published right after its write. Kept, renamed, as the
// oracle the batched passes are held to.

// perVMApplyAndNotify applies target to d through the transparent mechanism
// (Section 7.4's cluster evaluation runs no other) and publishes an
// allocation-change event when a bus is configured. old is d's
// allocation before the write: the Current column of the deflatable view
// the pass read, which nothing but this call moves within the pass — so
// the event is built from the view and from what Apply returns, with no
// further read of the domain.
func perVMApplyAndNotify(s *Server, cfg *Config, d hypervisor.Domain, old, target resources.Vector) error {
	got, err := mechanism.Transparent{}.Apply(&d, nil, target)
	if err != nil {
		return err
	}
	if cfg.Notify != nil && got != old {
		cfg.Notify.Publish(notify.Event{
			VM:                d.Name(),
			Server:            s.Host.Name(),
			Kind:              notify.Classify(old, got),
			Old:               old,
			New:               got,
			DeflationFraction: got.DeflationFraction(d.MaxSize()),
		})
	}
	return nil
}

// perVMDeflateFor is placeOn's policy pass: it computes and applies the
// deflation that makes room for dc on s, and returns the newcomer's
// initial allocation. The pass reads the host's deflatable VM-state view
// and runs the policy through the manager's pass arena, then applies
// targets in the view's name order — so steady-state calls perform zero
// heap allocations and notification delivery is deterministic.
func (m *Manager) perVMDeflateFor(s *Server, dc hypervisor.DomainConfig) (resources.Vector, error) {
	cfg := &m.cfg
	free := s.Host.Capacity().Sub(s.Host.Aggregates().Allocated)
	need := dc.Size.Sub(free).ClampNonNegative()
	if need.IsZero() {
		// Room available without any deflation.
		return dc.Size, nil
	}

	// Collect deflatable VMs from the host's view; the newcomer
	// joins the pool if it is itself deflatable ("a new incoming VM ...
	// can thus start its execution in a deflated mode", Section 5.1.1).
	sc := &m.pass
	sc.vms, sc.doms = s.Host.AppendDeflatableView(sc.vms[:0], sc.doms[:0])
	nResident := len(sc.vms)
	if dc.Deflatable {
		sc.vms = append(sc.vms, policy.VMState{
			Name:     newcomerName,
			Max:      dc.Size,
			Min:      hypervisor.DefaultFloor(),
			Priority: dc.Priority,
			Current:  dc.Size, // joins at full size; policy shrinks it
			Load:     dc.Load,
		})
	}

	res, err := cfg.Policy.TargetsInto(sc.vms, need, &sc.ps)
	if err != nil {
		return resources.Vector{}, err
	}

	// Apply deflation to resident VMs, in the view's name order.
	for i := 0; i < nResident; i++ {
		if err := perVMApplyAndNotify(s, cfg, sc.doms[i], sc.vms[i].Current, res.Targets[i]); err != nil {
			return resources.Vector{}, err
		}
	}
	initial := dc.Size
	if dc.Deflatable {
		initial = res.Targets[nResident]
	}
	return initial, nil
}

// perVMLaunch defines, starts and initially sizes the new domain: the
// three calls Host.Launch makes one.
func perVMLaunch(s *Server, dc hypervisor.DomainConfig, initial resources.Vector) (*hypervisor.Domain, error) {
	d, err := s.Host.Define(dc)
	if err != nil {
		return nil, err
	}
	if err := d.Start(); err != nil {
		s.Host.Undefine(dc.Name)
		return nil, err
	}
	if initial != dc.Size {
		if _, err := (mechanism.Transparent{}).Apply(d, nil, initial); err != nil {
			d.Shutdown()
			s.Host.Undefine(dc.Name)
			return nil, err
		}
	}
	return d, nil
}

// perVMReinflate redistributes free capacity to deflated VMs on s ("run the
// proportional deflation backwards", Section 5.1.3). The host's cached
// Deflated count short-circuits the common case where nothing on the
// server is deflated, without walking its domains. Like perVMDeflateFor it
// consumes the host's deflatable VM-state view through the manager's
// pass arena and applies targets in name order, so steady-state calls
// are allocation-free.
func (m *Manager) perVMReinflate(s *Server) error {
	cfg := &m.cfg
	agg := s.Host.Aggregates()
	if agg.Deflated == 0 {
		return nil
	}
	free := s.Host.Capacity().Sub(agg.Allocated).ClampNonNegative()
	if free.IsZero() {
		return nil
	}
	sc := &m.pass
	sc.vms, sc.doms = s.Host.AppendDeflatableView(sc.vms[:0], sc.doms[:0])
	if len(sc.vms) == 0 {
		return nil
	}
	res, err := cfg.Policy.TargetsInto(sc.vms, free.Scale(-1), &sc.ps)
	if errors.Is(err, policy.ErrInsufficient) {
		// The targets need more than the free capacity, which the
		// policy contract allows though no test reaches it: the
		// residents stay where they are.
		return nil
	}
	if err != nil {
		return err
	}
	for i := range sc.doms {
		if err := perVMApplyAndNotify(s, cfg, sc.doms[i], sc.vms[i].Current, res.Targets[i]); err != nil {
			return err
		}
	}
	return nil
}

// TestPolicyPassBumpsEpochOnce pins what one limit write per pass
// saves: a deflation pass that deflates n residents, and the
// reinflation pass that returns them, each move the host's allocation
// epoch by exactly one. The per-VM writes moved it once per resident
// written.
func TestPolicyPassBumpsEpochOnce(t *testing.T) {
	for _, pol := range []policy.Policy{policy.Proportional{}, policy.Priority{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			m, s := steadyStateServer(t, pol)
			twinM, twin := steadyStateServer(t, pol)
			od := hypervisor.DomainConfig{Name: "od", Size: resources.CPUMem(16, 32768)}
			epoch, twinEpoch := s.Host.AllocEpoch(), twin.Host.AllocEpoch()
			if _, err := m.deflateFor(s, od); err != nil {
				t.Fatal(err)
			}
			if _, err := twinM.perVMDeflateFor(twin, od); err != nil {
				t.Fatal(err)
			}
			n := s.Host.Aggregates().Deflated
			if n < 2 {
				t.Fatalf("premise broken: the pass deflated %d residents", n)
			}
			if got, perVM := s.Host.AllocEpoch()-epoch, twin.Host.AllocEpoch()-twinEpoch; got != 1 || perVM != uint64(n) {
				t.Errorf("deflating %d residents moved the epoch by %d (per-VM writes: %d), want 1 (%d)", n, got, perVM, n)
			}
			epoch = s.Host.AllocEpoch()
			m.syncDirty() // reinflate reads the synced cache
			if err := m.reinflate(s); err != nil {
				t.Fatal(err)
			}
			if got := s.Host.AllocEpoch() - epoch; got != 1 || s.Host.Aggregates().Deflated != 0 {
				t.Errorf("reinflating %d residents moved the epoch by %d, want 1", n, got)
			}
		})
	}
}

// TestPassesMatchPerVMWrites holds the batched passes to the per-VM
// writes they replaced, on twin single-server managers driven through
// the same churn: arrivals (deflateFor, then launch), departures
// (teardown, then reinflate), under every policy. After every op the two
// buses must have published the same event stream — same events, same
// order, same fields —, the passes must agree on errors and the
// newcomer's initial allocation, every domain must hold the same
// allocation bits and the hosts the same aggregates. The batched side's
// epoch moves at most once per pass.
func TestPassesMatchPerVMWrites(t *testing.T) {
	for _, pol := range []policy.Policy{policy.Proportional{}, policy.Priority{}, policy.Deterministic{}, policy.LatencyAware{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			type side struct {
				m      *Manager
				s      *Server
				events []notify.Event
			}
			newSide := func() *side {
				sd := &side{}
				var bus notify.Bus
				bus.Subscribe(func(ev notify.Event) { sd.events = append(sd.events, ev) })
				sd.m = NewManager(Config{Policy: pol, Notify: &bus})
				s, err := sd.m.AddServer("node-0", serverCap(), 0)
				if err != nil {
					t.Fatal(err)
				}
				sd.s = s
				return sd
			}
			a, b := newSide(), newSide() // batched, per-VM
			errText := func(err error) string {
				if err == nil {
					return ""
				}
				return err.Error()
			}
			rng := rand.New(rand.NewSource(43))
			var live []string
			for op := 0; op < 600; op++ {
				var opName string
				epoch := a.s.Host.AllocEpoch()
				passes := uint64(1)
				switch k := rng.Intn(10); {
				case k < 6 || len(live) == 0: // arrival
					name := fmt.Sprintf("vm-%03d", op)
					dc := deflatableVM(name, float64(2+rng.Intn(10)), float64(4096*(1+rng.Intn(5))), 0.25*float64(1+rng.Intn(4)))
					dc.Load = float64(rng.Intn(4))
					if rng.Intn(4) == 0 {
						dc = onDemandVM(name, float64(2+rng.Intn(6)), 8192)
					}
					opName = "arrive " + name
					a.m.syncDirty() // deflateFor reads the synced free vector
					ia, erra := a.m.deflateFor(a.s, dc)
					ib, errb := b.m.perVMDeflateFor(b.s, dc)
					if errText(erra) != errText(errb) || !sameBits(ia, ib) {
						t.Fatalf("%s: batched pass gave %v (err %v), per-VM %v (err %v)", opName, ia, erra, ib, errb)
					}
					if erra == nil {
						_, erra = a.s.Host.Launch(dc, ia)
						a.m.markDirty(a.s) // as placeOn does
						_, errb = perVMLaunch(b.s, dc, ib)
						if erra != nil || errb != nil {
							t.Fatalf("%s: launch: %v, per-VM %v", opName, erra, errb)
						}
						live = append(live, name)
						passes = 2 // the pass, then the newcomer's own write
					} else if !errors.Is(erra, policy.ErrInsufficient) {
						t.Fatal(erra)
					}
				default: // departure
					i := rng.Intn(len(live))
					name := live[i]
					live = append(live[:i], live[i+1:]...)
					opName = "depart " + name
					for _, sd := range []*side{a, b} {
						d, err := sd.s.Host.Lookup(name)
						if err != nil {
							t.Fatal(err)
						}
						if err := sd.m.teardown(sd.s, d); err != nil {
							t.Fatal(err)
						}
					}
					a.m.syncDirty() // as RemoveVMs does after its teardowns
					erra, errb := a.m.reinflate(a.s), b.m.perVMReinflate(b.s)
					if errText(erra) != errText(errb) {
						t.Fatalf("%s: reinflate err %v, per-VM %v", opName, erra, errb)
					}
				}
				if got := a.s.Host.AllocEpoch() - epoch; got > passes {
					t.Fatalf("%s: %d passes moved the epoch by %d", opName, passes, got)
				}
				if !slices.Equal(a.events, b.events) {
					t.Fatalf("%s: event streams diverged:\nbatched %+v\n per-VM %+v", opName, a.events, b.events)
				}
				da, db := a.s.Host.Domains(), b.s.Host.Domains()
				if len(da) != len(db) {
					t.Fatalf("%s: %d domains, per-VM %d", opName, len(da), len(db))
				}
				for i := range da {
					if da[i].Name() != db[i].Name() || !sameBits(da[i].Allocation(), db[i].Allocation()) {
						t.Fatalf("%s: %s allocates %v, per-VM %s %v", opName, da[i].Name(), da[i].Allocation(), db[i].Name(), db[i].Allocation())
					}
				}
				if aa, ab := a.s.Host.Aggregates(), b.s.Host.Aggregates(); aa != ab {
					t.Fatalf("%s: aggregates %+v, per-VM %+v", opName, aa, ab)
				}
			}
			if len(a.events) < 150 {
				t.Errorf("the churn published %d events: too few to hold the passes to anything", len(a.events))
			}
		})
	}
}

// sameBits reports whether a and b are bit-for-bit equal.
func sameBits(a, b resources.Vector) bool {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

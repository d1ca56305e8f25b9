package trace

import (
	"math"
	"reflect"
	"testing"
)

func shockCfg(kind ShockScenario) ShockConfig {
	return ShockConfig{Kind: kind, Duration: 3 * 86400, RatePerDay: 1, OutageMean: 3600, Seed: 7}
}

// TestGenerateShocksDeterministic: generation is a pure function of
// (config, nServers) — the property the differential suites replay on.
func TestGenerateShocksDeterministic(t *testing.T) {
	for _, kind := range []ShockScenario{ShockPoisson, ShockDiurnal, ShockRack} {
		a := GenerateShocks(shockCfg(kind), 20)
		b := GenerateShocks(shockCfg(kind), 20)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two generations from one config differ", kind)
		}
		if len(a) == 0 {
			t.Fatalf("%s: expected a non-empty schedule at rate 1/server/day over 3 days", kind)
		}
	}
}

// TestGenerateShocksWellFormed checks the structural invariants every
// schedule must satisfy: sorted times, alternating revoke/restore per
// server, no overlapping outages, and the simultaneous-revocation cap.
func TestGenerateShocksWellFormed(t *testing.T) {
	const n = 24
	for _, kind := range []ShockScenario{ShockPoisson, ShockDiurnal, ShockRack} {
		t.Run(string(kind), func(t *testing.T) {
			shocks := GenerateShocks(shockCfg(kind), n)
			out := make([]bool, n)
			outCount, maxSeen := 0, 0
			last := math.Inf(-1)
			for i, sh := range shocks {
				if sh.At < last {
					t.Fatalf("shock %d out of order: %g after %g", i, sh.At, last)
				}
				last = sh.At
				if sh.Server < 0 || sh.Server >= n {
					t.Fatalf("shock %d targets server %d outside [0,%d)", i, sh.Server, n)
				}
				switch sh.Kind {
				case ShockRevoke:
					if out[sh.Server] {
						t.Fatalf("shock %d revokes server %d twice", i, sh.Server)
					}
					out[sh.Server] = true
					outCount++
					if outCount > maxSeen {
						maxSeen = outCount
					}
				case ShockRestore:
					if !out[sh.Server] {
						t.Fatalf("shock %d restores server %d that is not out", i, sh.Server)
					}
					out[sh.Server] = false
					outCount--
				default:
					t.Fatalf("shock %d has unexpected kind %v", i, sh.Kind)
				}
			}
			if maxSeen > n/2 {
				t.Fatalf("%d servers simultaneously out, cap is %d", maxSeen, n/2)
			}
		})
	}
}

// TestDiurnalShocksStayInWindow: the temporally constrained scenario
// only starts revocations inside the daily window.
func TestDiurnalShocksStayInWindow(t *testing.T) {
	shocks := GenerateShocks(shockCfg(ShockDiurnal), 32)
	for _, sh := range shocks {
		if sh.Kind != ShockRevoke {
			continue
		}
		off := math.Mod(sh.At, 86400)
		if off < diurnalWindowStart || off >= diurnalWindowStart+diurnalWindowLen {
			t.Fatalf("revocation at %g (day offset %g) outside the [10h,16h) window", sh.At, off)
		}
	}
}

// TestRackShocksAreCorrelated: rack shocks revoke whole contiguous
// groups at one instant.
func TestRackShocksAreCorrelated(t *testing.T) {
	cfg := shockCfg(ShockRack)
	cfg.RackSize = 4
	cfg.MaxOutFraction = 1
	shocks := GenerateShocks(cfg, 16)
	byTime := map[float64][]int{}
	for _, sh := range shocks {
		if sh.Kind == ShockRevoke {
			byTime[sh.At] = append(byTime[sh.At], sh.Server)
		}
	}
	if len(byTime) == 0 {
		t.Fatal("no rack shocks generated")
	}
	for at, servers := range byTime {
		if len(servers) != 4 {
			// A partial group is only legal when the admission sweep
			// dropped overlapping members; with MaxOutFraction=1 that
			// still happens if the same rack is hit twice mid-outage, so
			// only whole-or-smaller groups are required.
			if len(servers) > 4 {
				t.Fatalf("shock at %g took out %d servers, rack size is 4", at, len(servers))
			}
			continue
		}
		rack := servers[0] / 4
		for _, s := range servers {
			if s/4 != rack {
				t.Fatalf("shock at %g spans racks: servers %v", at, servers)
			}
		}
	}
}

// TestMaxOutServersBoundary pins the exactly-at-cap admission boundary:
// MaxOutFraction*nServers that is an exact integer mathematically must
// cap at that integer, not at int() of its float-representation
// neighbour (0.3*10 = 2.999...96 used to truncate to 2).
func TestMaxOutServersBoundary(t *testing.T) {
	cases := []struct {
		frac string
		f    float64
		n    int
		want int
	}{
		{"0.3 of 10", 0.3, 10, 3},
		{"0.7 of 10", 0.7, 10, 7},
		{"0.5 of 10", 0.5, 10, 5},
		{"0.5 of 9", 0.5, 9, 4},
		{"0.1 of 3", 0.1, 3, 1}, // floor: never below one server
		{"1.0 of 6", 1.0, 6, 6},
	}
	for _, c := range cases {
		cfg := ShockConfig{MaxOutFraction: c.f}
		if got := cfg.MaxOutServers(c.n); got != c.want {
			t.Errorf("%s: MaxOutServers = %d, want %d", c.frac, got, c.want)
		}
	}
	// End to end: with MaxOutFraction=0.3 over 10 servers, a schedule may
	// hold exactly 3 servers out at once — and a dense-enough candidate
	// stream does reach that cap.
	cfg := shockCfg(ShockPoisson)
	cfg.RatePerDay, cfg.MaxOutFraction, cfg.OutageMean = 16, 0.3, 6*3600
	shocks := GenerateShocks(cfg, 10)
	out, peak := 0, 0
	for _, sh := range shocks {
		switch sh.Kind {
		case ShockRevoke:
			out++
		case ShockRestore:
			out--
		}
		if out > peak {
			peak = out
		}
	}
	if peak != 3 {
		t.Fatalf("peak simultaneous revocations = %d, want the exact cap 3", peak)
	}
}

// TestRackShocksClampedToFleetAndCap pins the RackSize > nServers edge
// (the rack clamps to the fleet) and the RackSize > MaxOutServers edge
// (the rack clamps to the cap, so no server is starved of revocations —
// before the clamp, same-instant candidates admitted in server order
// meant servers past the cap inside an oversized rack never revoked).
func TestRackShocksClampedToFleetAndCap(t *testing.T) {
	cases := []struct {
		name           string
		rackSize, n    int
		maxOutFraction float64
		wantGroup      int // revocations per shock instant
		wantAllRevoked bool
	}{
		{"rack wider than fleet", 64, 6, 1.0, 6, true},
		{"rack wider than cap", 8, 12, 0.25, 3, true},
		{"rack at cap exactly", 4, 16, 0.25, 4, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := shockCfg(ShockRack)
			cfg.RackSize, cfg.MaxOutFraction = c.rackSize, c.maxOutFraction
			cfg.RatePerDay, cfg.Duration = 4, 30*86400
			shocks := GenerateShocks(cfg, c.n)
			if len(shocks) == 0 {
				t.Fatal("no shocks generated")
			}
			byTime := map[float64]int{}
			revoked := make([]bool, c.n)
			for _, sh := range shocks {
				if sh.Kind != ShockRevoke {
					continue
				}
				byTime[sh.At]++
				revoked[sh.Server] = true
			}
			for at, k := range byTime {
				if k > c.wantGroup {
					t.Fatalf("shock at %g revoked %d servers, want <= %d", at, k, c.wantGroup)
				}
			}
			if c.wantAllRevoked {
				for s, ok := range revoked {
					if !ok {
						t.Errorf("server %d never revoked over 30 days at rate 4/day — rack starvation", s)
					}
				}
			}
		})
	}
}

// TestGenerateShocksEmpty: none/zero configs yield no schedule.
func TestGenerateShocksEmpty(t *testing.T) {
	if got := GenerateShocks(ShockConfig{Kind: ShockNone, Duration: 86400}, 10); got != nil {
		t.Fatalf("ShockNone produced %d shocks", len(got))
	}
	if got := GenerateShocks(shockCfg(ShockPoisson), 0); got != nil {
		t.Fatalf("0 servers produced %d shocks", len(got))
	}
}

// TestParseShockScenario round-trips the known names and rejects junk.
func TestParseShockScenario(t *testing.T) {
	for _, k := range ShockScenarios() {
		got, err := ParseShockScenario(string(k))
		if err != nil || got != k {
			t.Fatalf("ParseShockScenario(%q) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseShockScenario("meteor"); err == nil {
		t.Fatal("ParseShockScenario accepted an unknown name")
	}
}

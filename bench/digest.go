package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"strconv"

	"vmdeflate/internal/clustersim"
)

// A digest is sha256 over an explicit list of paper-facing result
// fields: ints as 8 little-endian bytes, floats as their IEEE bits, maps
// in sorted key order. The Pressure* meters and anything a later PR adds
// to Result are deliberately not hashed, so instrumentation can come and
// go without flipping a golden.
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

func (d digester) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digester) ints(vs ...int) {
	for _, v := range vs {
		d.u64(uint64(v))
	}
}

func (d digester) floats(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d digester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d digester) byName(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d.ints(len(keys))
	for _, k := range keys {
		d.str(k)
		d.floats(m[k])
	}
}

func (d digester) byLevel(m map[int]float64) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	d.ints(len(keys))
	for _, k := range keys {
		d.ints(k)
		d.floats(m[k])
	}
}

func (d digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func digestResult(r *clustersim.Result) string {
	d := newDigester()
	d.ints(r.Servers, r.Arrivals, r.Admitted, r.Rejected,
		r.ReclamationAttempts, r.ReclamationFailures, r.Preemptions, r.DeflatableAdmitted)
	d.floats(r.FailureProbability, r.ThroughputLoss)
	d.byName(r.Revenue)
	d.ints(r.Revocations, r.Restorations, r.Resizes, r.Evacuations, r.ShockKills)
	d.floats(r.DisplacedDowntime, r.FleetCost, r.OnDemandRevenue)
	d.byName(r.CostSavings)
	d.byLevel(r.RevenueByPriority)
	d.floats(r.SLOViolationSeconds, r.SLOSampleSeconds, r.SLOViolationRate, r.SLOLatencyP99)
	d.byLevel(r.SLOViolationsByPriority)
	return d.sum()
}

func digestSweep(out []*clustersim.SweepResult) string {
	d := newDigester()
	d.ints(len(out))
	for _, sr := range out {
		d.str(sr.Strategy)
		d.ints(len(sr.Points))
		for _, p := range sr.Points {
			d.floats(p.OvercommitPct, p.FailureProbability, p.ThroughputLossPct)
			d.byName(p.Revenue)
			d.ints(p.Servers, p.Admitted, p.Revocations, p.Evacuations, p.ShockKills)
			d.floats(p.DisplacedDowntime, p.OnDemandRevenue, p.FleetCost,
				p.SLOViolationSeconds, p.SLOViolationRate, p.SLOLatencyP99)
		}
	}
	return d.sum()
}

// goldenJSON holds the checked-in digests: GOARCH -> "workload/vms" ->
// trace seed -> digest. Go fuses multiply-adds on arm64, so bit-for-bit
// results are only claimed per architecture; keying by size means a
// shrunk test workload simply has no golden. It lives here and not in
// BENCHMARK.json because that file's keys are fixed by the driver.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]map[string]map[string]string {
	var g map[string]map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("bench: golden.json: " + err.Error())
	}
	return g
}()

func goldenKey(w *workload) string { return fmt.Sprintf("%s/%d", w.name, w.vms) }

// goldenFor returns the checked-in digest for w at traceSeed on this
// architecture, or "" when none exists.
func goldenFor(w *workload, traceSeed int64) string {
	return golden[runtime.GOARCH][goldenKey(w)][strconv.FormatInt(traceSeed, 10)]
}

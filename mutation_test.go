package vmdeflate

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var mutateFlag = flag.Bool("mutate", false, "run TestMutationsAreKilled: each entry of the kill matrix laid over the module (minutes)")

// suite is one `go test -run` selection in one package.
type suite struct{ pkg, run string }

// mutation is one entry of the kill matrix: a source edit that breaks an
// invariant, the suites that must fail with it applied, and the suites
// recorded as passing with it. from must occur exactly once in file. A
// recorded miss that starts to kill fails the entry, so the record is
// updated.
type mutation struct {
	name, file, from, to string
	kills, misses        []suite
}

// The suites the entries cite: every named op stream and fuzz seed set
// of the three layers' decoders.
var (
	placementSuites = []suite{
		{"internal/cluster", "^FuzzPlacementOps$"},
		{"internal/cluster", "^TestPlaceVMsMatchesPlaceVMLoopAndReference$"},
		{"internal/cluster", "^TestIndexedPlacementMatchesReference"},
		{"internal/cluster", "^TestRevocationChurnMatchesAcrossEngines$"},
		{"internal/cluster", "^TestPressureShockChurnDifferential$"},
		{"internal/cluster", "^TestChurnNeverOverAllocates$"},
		{"internal/cluster", "^TestPlacementOpsCapacityChurn$"},
	}
	domainSuites = []suite{
		{"internal/hypervisor", "^FuzzDomainOps$"},
		{"internal/hypervisor", "^TestAggregatesMatchFreshRecompute$"},
		{"internal/hypervisor", "^TestDeflatableViewMatchesFreshWalk$"},
	}
	streamSuites = []suite{
		{"internal/clustersim", "^FuzzStreamMatchesEager$"},
		{"internal/clustersim", "^TestStreamedEngineMatchesEager$"},
		{"internal/clustersim", "^TestStreamedEngineMatchesEagerFullFeatures$"},
		{"internal/clustersim", "^TestStreamedBaselineSizingMatchesEager$"},
	}
)

// dropMark is the mutation that deletes one of the manager's markDirty
// calls, found by the lines around it.
func dropMark(where, file, before, after string, kills, misses []suite) mutation {
	return mutation{
		name: "markDirty/" + where, file: file,
		from: before + "m.markDirty(s)\n" + after, to: before + after,
		kills: kills, misses: misses,
	}
}

var mutations = []mutation{
	dropMark("AddServerSpec", "internal/cluster/cluster.go",
		"m.maxCap[partition] = m.maxCap[partition].Max(capacity)\n\t", "\treturn s, nil", placementSuites, nil),
	dropMark("placeOn", "internal/cluster/cluster.go", "\t", "\tm.placements[dc.Name] = s", placementSuites, nil),
	dropMark("teardown", "internal/cluster/cluster.go", "\t", "\tname := d.Name()", placementSuites, nil),
	dropMark("RestoreServer", "internal/cluster/revoke.go", "s.revoked = false\n\t", "\treturn nil", placementSuites, nil),
	dropMark("writeTargets", "internal/cluster/cluster.go", "\t\t", "\t\tif m.cfg.Notify != nil {", placementSuites, nil),
	// Without the sync a departure's pass reads the cache from before its
	// teardowns: it hands back less than was freed, or nothing. Every
	// manager of an op stream does the same, so only the checks that
	// read the survivors' allocations see it: the tests', and the op
	// streams' water-fill check after a departure, which runs under the
	// proportional policy only.
	{
		name: "syncDirty/RemoveVMs", file: "internal/cluster/cluster.go",
		from: "\tm.syncDirty()\n\tfor _, s := range affected {", to: "\tfor _, s := range affected {",
		kills: []suite{
			{"internal/cluster", "^TestRemoveVM"},
			{"internal/cluster", "^TestEveryMutatorMarksItsServer$"},
			{"internal/clustersim", "^TestWorkCountsMatchGolden$"},
			{"internal/clustersim", "^TestPinnedScanCounters$"},
			placementSuites[0], placementSuites[2], placementSuites[3], placementSuites[6],
		},
		misses: []suite{placementSuites[1], placementSuites[4], placementSuites[5]},
	},
	// Only the named streams hold a floor on the events published; the
	// fuzz seeds and the capacity churn count none.
	{
		name: "writeTargets/drop-publish", file: "internal/cluster/cluster.go",
		from: "\t\tif m.cfg.Notify != nil {\n\t\t\tm.cfg.Notify.Publish(", to: "\t\tif false {\n\t\t\tm.cfg.Notify.Publish(",
		kills:  append([]suite{{"internal/cluster", "^TestEventsMatchLockedDomainReads$"}}, placementSuites[1:6]...),
		misses: []suite{placementSuites[0], placementSuites[6]},
	},
	// Without the generation compare a handle whose VM has left reads,
	// and writes, whatever VM next took its row slot.
	{
		name: "Domain/generation-check", file: "internal/hypervisor/hypervisor.go",
		from: "r.gen == d.gen {", to: "true {",
		kills: append(slices.Clone(domainSuites), placementSuites...),
	},
	{
		name: "SetLimits/epoch-bump", file: "internal/hypervisor/hypervisor.go",
		from: "\tif moved {\n\t\th.epoch++\n\t}\n", to: "\t_ = moved\n",
		kills: domainSuites,
	},
	{
		name: "SetLimits/first-entry-only", file: "internal/hypervisor/hypervisor.go",
		from: "\t\t\tif x > 0 {\n\t\t\t\tr.limits[k] = x\n", to: "\t\t\tif x > 0 && i == 0 {\n\t\t\t\tr.limits[k] = x\n",
		kills: domainSuites,
	},
	// An undefined handle reads zero values: read after Undefine, the
	// name is "", and the placement stays behind. checkServerCache's
	// placement audit sees the stale entry after the op that left it.
	{
		name: "teardown/name-after-undefine", file: "internal/cluster/cluster.go",
		from:  "\tname := d.Name()\n\tif err := s.Host.Undefine(name); err != nil {\n\t\treturn err\n\t}\n\tdelete(m.placements, name)\n",
		to:    "\tif err := s.Host.Undefine(d.Name()); err != nil {\n\t\treturn err\n\t}\n\tdelete(m.placements, d.Name())\n",
		kills: placementSuites,
	},
	{
		name: "displace/drop-on-demand-evacuee", file: "internal/cluster/revoke.go",
		from: "\tm.evacDCs = append(m.evacDCs, dc)\n", to: "\tif dc.Deflatable {\n\t\tm.evacDCs = append(m.evacDCs, dc)\n\t}\n",
		kills: placementSuites,
	},
	// The oracles rank by their own oracleOrder, so the differential
	// suites see the swap; two streams never meet an exact fitness tie.
	{
		name: "candBefore/tie-break", file: "internal/cluster/cluster.go",
		from: "\treturn a.idx < b.idx\n", to: "\treturn a.idx > b.idx\n",
		kills: append([]suite{
			{"internal/cluster", "^TestEveryMutatorMarksItsServer$"},
			{"internal/clustersim", "^TestPinnedScanCounters$"},
			{"internal/clustersim", "^TestWorkCountsMatchGolden$"},
		}, slices.Concat(placementSuites[:4], placementSuites[6:])...),
		misses: placementSuites[4:6],
	},
	// The heap oracle orders by its own oracleEventOrder, so the suites
	// that hold the run queue or whole runs to it see the swap; the
	// streamed and eager intakes share eventLess, and the series
	// goldens never meet a tie the seq order decides.
	{
		name: "eventLess/tie-break", file: "internal/clustersim/events.go",
		from: "\treturn a.seq < b.seq\n", to: "\treturn a.seq > b.seq\n",
		kills: []suite{
			{"internal/clustersim", "^FuzzEventQueue$"},
			{"internal/clustersim", "^TestEventQueueOrdering$"},
			{"internal/clustersim", "^TestWorkCountsMatchGolden$"},
			{"internal/clustersim", "^TestPinnedScanCounters$"},
			{"internal/clustersim", "^TestEventHeapMatchesOracleRandomized$"},
			{"internal/clustersim", "^TestRunQueueMatchesHeapFullRuns$"},
			{"internal/clustersim", "^TestEngineMatchesOraclesAcrossScenarios$"},
			{"internal/clustersim", "^TestPartitionedEngineMatchesOracles$"},
			{"internal/clustersim", "^TestPressurePruningDifferential$"},
		},
		misses: append([]suite{
			{"internal/clustersim", "^TestEngineMatchesLegacySliceReplay$"},
			{"cmd/deflationsim", "^TestSeriesMatchGolden$"},
		}, streamSuites...),
	},
	// Breaking at equality differs only when a share lands exactly on the
	// bound, which no suite constructs.
	{
		name: "fleet.fit/stop-bound", file: "internal/clustersim/sizing.go",
		from: "\t\tif s-d > bestLeft+f.delta {\n", to: "\t\tif s-d >= bestLeft+f.delta {\n",
		misses: []suite{
			{"internal/clustersim", "^TestFleetFitMatchesLinearScan$"},
			{"internal/clustersim", "^TestFleetFitStartSlack$"},
			{"internal/clustersim", "^TestSizingWorkCounters$"},
			{"internal/clustersim", "^TestSizingOnePassMatchesCandidateSearch"},
			{"internal/clustersim", "^FuzzSizeFleet$"},
			{"internal/clustersim", "^TestPreemptionMatchesParentLoop"},
			{"internal/clustersim", "^TestWorkCountsMatchGolden$"},
		},
	},
	// The testbed experiments' one request path. A timeout that stops
	// counting its drop serves every request: Figure 17's served
	// fraction and the series see it, Figures 16 and 19 plot response
	// times of served requests only.
	{
		name: "serve/drop-timeout", file: "internal/apps/webapp.go",
		from: "\t\tif w.station.Cancel(job) {\n\t\t\tm.Drop()\n\t\t}\n", to: "\t\tw.station.Cancel(job)\n",
		kills: []suite{
			{"cmd/webbench", "^TestSeriesMatchGolden$"},
			{".", "^TestFig17WikipediaServesAllTo70$"},
			{"internal/apps", "^TestWikipediaDeflationShape$"},
		},
		misses: []suite{
			{".", "^TestFig16WikipediaRTFlatTo70$"},
			{".", "^TestFig19DeflationAwareLBCutsTail$"},
		},
	},
	// Measured warm-up requests move every series, but no claim test's
	// margin: only the goldens and the runner's own test see them.
	{
		name: "measured/warm-up", file: "internal/apps/apps.go",
		from: "\t\t\tserve(now, nil)\n", to: "\t\t\tserve(now, &m)\n",
		kills: []suite{
			{"cmd/webbench", "^TestSeriesMatchGolden$"},
			{"internal/apps", "^TestMeasureSkipsWarmUp$"},
		},
		misses: []suite{
			{".", "^TestFig16WikipediaRTFlatTo70$"},
			{".", "^TestFig17WikipediaServesAllTo70$"},
			{".", "^TestFig18MicroservicesServeThroughTheKnee$"},
			{".", "^TestFig19DeflationAwareLBCutsTail$"},
		},
	},
	// Figure 7's small-VM edge. The default Azure trace has VMs of
	// exactly 2 GB, so Fig 7's series see the move; its claim test's
	// spread margin does not.
	{
		name: "BySize/boundary", file: "internal/feasibility/feasibility.go",
		from: "case mb <= 2048:", to: "case mb < 2048:",
		kills: []suite{
			{"cmd/feasibility", "^TestSeriesMatchGolden$"},
			{"internal/feasibility", "^TestSizeClassification$"},
		},
		misses: []suite{{".", "^TestFig07SizeDoesNotPredictDeflatability$"}},
	},
	// Figure 8's low-peak edge. No default-trace VM has a P95 of exactly
	// 33 %, so only the boundary table sees it.
	{
		name: "ByPeak/boundary", file: "internal/feasibility/feasibility.go",
		from: "case p < 33:", to: "case p <= 33:",
		kills: []suite{{"internal/feasibility", "^TestPeakClassification$"}},
		misses: []suite{
			{"cmd/feasibility", "^TestSeriesMatchGolden$"},
			{".", "^TestFig08LowPeakVMsDeflateFreely$"},
		},
	},
	// Without the skip a zero-lifetime row is bucketed: alone in its
	// class, or in the top peak bucket by its NaN P95, it leaves a bucket
	// of empty series that fails Figures 6 and 8.
	{
		name: "grouped/sample-less", file: "internal/feasibility/feasibility.go",
		from: "\t\tif len(vm.CPUUtil) == 0 {\n\t\t\tcontinue\n\t\t}\n", to: "",
		kills: []suite{
			{"internal/feasibility", "^TestBreakdownSkipsSampleLessRows$"},
			{"cmd/feasibility", "^TestCSVRowsWithoutSamples$"},
		},
	},
	{
		name: "streamRows/p95", file: "internal/clustersim/rows.go",
		from: "stats.PercentileSelect(a.buf, 95)", to: "stats.PercentileSelect(a.buf, 90)",
		kills: streamSuites,
	},
	{
		name: "streamRows/cursor-reset", file: "internal/clustersim/rows.go",
		from: "\t\tc = trace.NewUtilCursor()\n\t}\n\tc.Reset(*a.params(row))\n",
		to:   "\t\tc = trace.NewUtilCursor()\n\t\tc.Reset(*a.params(row))\n\t}\n",
		// The default policy reads no utilisation cursor.
		kills: streamSuites[:3], misses: streamSuites[3:],
	},
}

// TestMutationsAreKilled is the kill matrix: each entry's edit is laid
// over the module through `go test -overlay`, and each of its suites
// runs with it (runMutant). A suite kills the mutation by failing; a
// build failure or a suite that selects no test fails the entry instead.
//
//	go test -count=1 -run TestMutationsAreKilled -mutate -v -timeout 10m .
func TestMutationsAreKilled(t *testing.T) {
	if !*mutateFlag {
		t.Skip("the kill matrix runs with -mutate")
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			src, err := os.ReadFile(m.file)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.from); n != 1 {
				t.Fatalf("%s holds the snippet %d times, want once:\n%s", m.file, n, m.from)
			}
			overlay, err := writeOverlay(t.TempDir(), m.file, []byte(strings.Replace(string(src), m.from, m.to, 1)))
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range slices.Concat(m.kills, m.misses) {
				r, err := runMutant(s.pkg, s.run, overlay)
				switch mustKill := i < len(m.kills); {
				case err != nil:
					t.Fatal(err)
				case r.buildFailed:
					t.Fatalf("%s does not build", s.pkg)
				case r.noTests:
					t.Fatalf("%s %s selects no test", s.pkg, s.run)
				case len(r.killers) > 0:
					t.Logf("killed   %s %s by %s", s.pkg, s.run, strings.Join(r.killers, " "))
					if !mustKill {
						t.Errorf("recorded as a miss, %s %s now kills it: move it to kills", s.pkg, s.run)
					}
				default:
					t.Logf("survived %s %s", s.pkg, s.run)
					if mustKill {
						t.Errorf("not killed by %s %s", s.pkg, s.run)
					}
				}
			}
		})
	}
}

// writeOverlay writes src, the mutated text of the module file at path
// (relative to the module root), into dir, and returns the `go test
// -overlay` file that lays it over the original.
func writeOverlay(dir, path string, src []byte) (string, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "", err
	}
	mutated, overlay := filepath.Join(dir, "mutant.go"), filepath.Join(dir, "overlay.json")
	ov, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(mutated, src, 0o644); err != nil {
		return "", err
	}
	return overlay, os.WriteFile(overlay, ov, 0o644)
}

// mutantRun is what one package's tests did with a mutant laid over the
// module: the top-level tests that failed, or that the package does not
// build, or that the selection ran no test.
type mutantRun struct {
	killers              []string
	buildFailed, noTests bool
}

// runMutant runs the tests of pkg (a module-relative directory) that
// run selects ("" for all) with overlay laid over the module. A
// top-level test kills the mutant by failing. A test that crashes the
// binary, or that runs past 5 s plus ten times what it took on the
// unmutated module (a hang), kills it too; the binary is then rerun
// with every test that has its verdict skipped, so a crash or a hang in
// one test hides no later test's verdict.
func runMutant(pkg, run, overlay string) (mutantRun, error) {
	times, err := unmutatedTimes(pkg, run)
	if err != nil {
		return mutantRun{}, err
	}
	limit := func(test string) time.Duration { return 5*time.Second + 10*times[test] }
	r := mutantRun{noTests: true}
	done, killed := map[string]bool{}, map[string]bool{} // top-level tests with a verdict, and those that failed
	for {
		args := []string{"-overlay", overlay, "-run", run}
		if len(done) > 0 {
			args = append(args, "-skip", "^("+strings.Join(slices.Sorted(maps.Keys(done)), "|")+")$")
		}
		started, before := map[string]bool{}, len(done)
		finished, buildFailed, err := goTest(pkg, args, limit, func(ev testEvent) {
			switch ev.Action {
			case "run":
				started[ev.Test], r.noTests = true, false
			case "fail":
				killed[ev.Test] = true
				fallthrough
			case "pass", "skip":
				done[ev.Test] = true
			}
		})
		switch {
		case err != nil:
			return r, err
		case buildFailed:
			return mutantRun{buildFailed: true}, nil
		case finished:
			r.killers = slices.Sorted(maps.Keys(killed))
			return r, nil
		}
		for name := range started { // a crash or the hang limit stopped these
			if !done[name] {
				killed[name], done[name] = true, true
			}
		}
		if len(done) == before {
			return r, fmt.Errorf("%s: the test binary stopped before any test ended", pkg)
		}
	}
}

// unmutated caches what each top-level test of a selection took on the
// unmutated module, by package and run pattern.
var unmutated = struct {
	sync.Mutex
	times map[[2]string]map[string]time.Duration
}{times: map[[2]string]map[string]time.Duration{}}

// unmutatedTimes runs pkg's tests that run selects on the unmutated
// module once, and returns each top-level test's time. They must pass.
func unmutatedTimes(pkg, run string) (map[string]time.Duration, error) {
	unmutated.Lock()
	defer unmutated.Unlock()
	if times, ok := unmutated.times[[2]string{pkg, run}]; ok {
		return times, nil
	}
	// The time from a test's start to its verdict, as the hang limit
	// counts it: a test's Elapsed leaves out its parallel subtests.
	times, started, failed := map[string]time.Duration{}, map[string]time.Time{}, false
	finished, _, err := goTest(pkg, []string{"-run", run}, nil, func(ev testEvent) {
		if ev.Action == "run" {
			started[ev.Test] = ev.Time
		}
		times[ev.Test] = ev.Time.Sub(started[ev.Test])
		failed = failed || ev.Action == "fail"
	})
	if err != nil {
		return nil, err
	}
	if !finished || failed {
		return nil, fmt.Errorf("%s -run %q fails on the unmutated module", pkg, run)
	}
	unmutated.times[[2]string{pkg, run}] = times
	return times, nil
}

// testEvent is one top-level test's event in `go test -json` output.
type testEvent struct {
	Time                 time.Time
	Action, Test, Output string
}

// goTest runs `go test -json` on pkg with args and hands each top-level
// test's event to f as it arrives. A mutant can make a loop allocate
// without bound: an address-space cap (3 GB) stops the test process
// before it takes the machine's memory. A top-level test that runs past
// limit(test) (no limit when limit is nil) has the whole process group
// killed. goTest reports whether the binary ran to its end (the
// testing package's last "PASS" or "FAIL" line) and whether the package
// failed to build.
func goTest(pkg string, args []string, limit func(string) time.Duration, f func(testEvent)) (finished, buildFailed bool, err error) {
	cmd := exec.Command("sh", slices.Concat([]string{"-c", `ulimit -v 3000000 && exec go "$@"`, "go", "test", "-json", "-count=1", "-vet=off"}, args, []string{"./" + pkg})...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return false, false, err
	}
	if err := cmd.Start(); err != nil {
		return false, false, err
	}
	hang := time.AfterFunc(time.Hour, func() {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // it fails only once the group has exited
	})
	hang.Stop()
	// A decode error is output cut off by the kill: the binary did not
	// run to its end.
	for dec := json.NewDecoder(stdout); dec.More(); {
		var ev testEvent
		if dec.Decode(&ev) != nil {
			break
		}
		switch {
		case ev.Action == "build-fail":
			buildFailed = true
		case ev.Test == "":
			finished = finished || ev.Output == "PASS\n" || ev.Output == "FAIL\n"
		case strings.Contains(ev.Test, "/"):
		case ev.Action == "run" || ev.Action == "pass" || ev.Action == "fail" || ev.Action == "skip":
			if ev.Action == "run" && limit != nil {
				hang.Reset(limit(ev.Test))
			} else {
				hang.Stop()
			}
			f(ev)
		}
	}
	hang.Stop()
	_, _ = io.Copy(io.Discard, stdout) // lets the process exit; what is left tells nothing
	_ = cmd.Wait()                     // a failing package exits non-zero; its events say how
	return finished, buildFailed, nil
}

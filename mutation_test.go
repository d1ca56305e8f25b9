package vmdeflate

import (
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var mutateFlag = flag.Bool("mutate", false, "run TestMutationsAreKilled: each entry of the kill matrix in a temp copy of the module (minutes)")

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
	dropMark("teardown", "internal/cluster/cluster.go", "\t", "\tif err := s.Host.Undefine(d.Name())", placementSuites, nil),
	dropMark("RestoreServer", "internal/cluster/revoke.go", "s.revoked = false\n\t", "\treturn nil", placementSuites, nil),
	dropMark("ResizeServer", "internal/cluster/revoke.go", "\t", "\t// maxCap stays", placementSuites, nil),
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
	{
		name: "Undefine/slot-repoint", file: "internal/hypervisor/hypervisor.go",
		from: "h.order[j], moved.dom.slot = hole, hole", to: "h.order[j] = hole",
		kills: domainSuites,
	},
	{
		name: "SetLimits/epoch-bump", file: "internal/hypervisor/hypervisor.go",
		from: "\tif moved {\n\t\th.epoch++\n\t}\n", to: "\t_ = moved\n",
		kills: domainSuites,
	},
	{
		name: "SetLimits/first-entry-only", file: "internal/hypervisor/hypervisor.go",
		from: "\t\t\tif x > 0 {\n\t\t\t\td.limits[k] = x\n", to: "\t\t\tif x > 0 && i == 0 {\n\t\t\t\td.limits[k] = x\n",
		kills: domainSuites,
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
		from: "\t\tif s-d > bestLeft+slack {\n", to: "\t\tif s-d >= bestLeft+slack {\n",
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
	// Only the host's validation test and the manager's invalid-resize
	// test resize to a bad capacity.
	{
		name: "checkCapacity/SetCapacity", file: "internal/hypervisor/hypervisor.go",
		from: "\tif err := checkCapacity(h.cfg.Name, v); err != nil {\n\t\treturn err\n\t}\n", to: "",
		kills: []suite{
			{"internal/hypervisor", "^TestSetCapacityValidation$"},
			{"internal/cluster", "^TestResizeServerRejectsInvalidCapacity$"},
		},
		misses: append([]suite{
			{"internal/cluster", "^TestResizeServerShrink"},
		}, slices.Concat(domainSuites, placementSuites)...),
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

// TestMutationsAreKilled is the kill matrix: each entry's edit is
// applied to a temp copy of the module, and each of its suites runs
// there with `go test`. A suite kills the mutation by failing; a build
// failure or a suite that selects no test fails the entry instead.
//
//	go test -count=1 -run TestMutationsAreKilled -mutate -v -timeout 10m .
func TestMutationsAreKilled(t *testing.T) {
	if !*mutateFlag {
		t.Skip("the kill matrix runs with -mutate")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	failed := regexp.MustCompile(`(?m)^--- FAIL: (\S+)`)
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			copyModule(t, root, dir)
			path := filepath.Join(dir, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.from); n != 1 {
				t.Fatalf("%s holds the snippet %d times, want once:\n%s", m.file, n, m.from)
			}
			if err := os.WriteFile(path, []byte(strings.Replace(string(src), m.from, m.to, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			for i, s := range slices.Concat(m.kills, m.misses) {
				cmd := exec.Command("go", "test", "-count=1", "-vet=off", "-run", s.run, "./"+s.pkg)
				cmd.Dir = dir
				out, err := cmd.CombinedOutput()
				switch text, mustKill := string(out), i < len(m.kills); {
				case strings.Contains(text, "[build failed]") || strings.Contains(text, "[setup failed]"):
					t.Fatalf("%s does not build:\n%s", s.pkg, text)
				case strings.Contains(text, "no tests to run"):
					t.Fatalf("%s %s selects no test", s.pkg, s.run)
				case err != nil:
					var names []string
					for _, f := range failed.FindAllStringSubmatch(text, -1) {
						names = append(names, f[1])
					}
					if len(names) == 0 {
						names = []string{"(panic)"}
					}
					t.Logf("killed   %s %s by %s", s.pkg, s.run, strings.Join(names, " "))
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

// copyModule copies the module at root, less its .git directory, to dir.
func copyModule(t *testing.T, root, dir string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

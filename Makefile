# Developer/CI entry points. `make ci` is what the GitHub Actions
# workflow runs: vet, race-enabled tests, a one-shot smoke of the
# parallel sweep benchmark, the zero-allocation gate on the placement
# policy hot path, and the SLO frontier and pressure-index gates.

GO ?= go

.PHONY: build test vet race race-placement mutate census census-check bench-smoke bench-allocs bench-scale-10m bench-slo bench-pressure bench-e2e bench-compare bench ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race shard over what still runs across goroutines: a sweep's
# engines on the worker pool (the parallel grid against the sequential
# one, and every engine run under the cluster package's test-side
# placement oracles, whose hook concurrent sweep workers read), the
# notify.Bus that the engines of one sweep share (its publish, and
# engines publishing at once) and the trace's build-once P95 column. A
# Manager, its hosts and their domains have one owner and share
# nothing; the full `race` run checks that. A fast, explicit signal
# beside it.
race-placement:
	$(GO) test -race -run 'SweepGridParallel|SharedBus|PlacementOracles|P95Column|Publish' ./internal/cluster ./internal/clustersim ./internal/trace ./internal/notify

# Kill matrix (mutation_test.go): each entry lays one source edit over
# the module with `go test -overlay` (a dropped markDirty, the departure's dropped
# sync, the domain handle's generation check, the teardown's name read before
# Undefine, the allocation-epoch bump, a dropped
# on-demand evacuee, the pressure and event orders' tie-breaks, fleet
# sizing's stop bound, two streamed-adapter
# edits, and the testbed request path's uncounted timeout and measured
# warm-up) and runs the `go test -run` suites that must fail with it, and
# those recorded as missing it. Skipped without -mutate, so `make test`
# does not run it.
mutate:
	$(GO) test -count=1 -run '^TestMutationsAreKilled$$' -mutate -v -timeout 10m .

# Mutation census (census_test.go) of one package, PKG=internal/cluster
# or PKG=internal/hypervisor: every comparison flipped to its
# neighbour, every numeric + / - and && / || swapped and every call
# statement dropped, each alone laid over the module, against the
# package's tier-1 tests. Rewrites testdata/census/<pkg>.txt (each
# mutant with the tests that kill it, survivors first) and fails on a
# survivor the file gives no reason for (~1 min for the hypervisor,
# ~11 for the cluster on 2 cores). census-check runs a fixed seeded
# sample of 20 mutants and fails where a line differs from the
# committed file instead.
PKG ?= internal/cluster
census:
	$(GO) test -count=1 -run '^TestMutationCensus$$' -census $(PKG) -timeout 90m .

census-check:
	$(GO) test -count=1 -run '^TestMutationCensus$$' -census $(PKG) -census.check -timeout 30m .

# One iteration of the 10k-VM sweep benchmarks: proves the parallel
# engine end-to-end without the cost of a full benchmark session.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Sweep10k' -benchtime 1x .

# Allocation gate: the steady-state deflate/reinflate policy pass,
# the placement decision, a VM placed under pressure and removed again,
# the pruned pressure scan, the sample pass on both sides
# of its allocation cache (a limit write between passes), the
# SLO-metered sample pass (closed-form queueing math included), the
# live-set event heap's steady-state churn and its fill-drain cycles
# (one array reused past its high-water mark), the streamed trace's
# per-VM parameter draw, a host's load writes
# followed by a deflatable-view read, a host's refresh walk after a limit
# write, one policy pass's batched limit write over a host's residents,
# the capacity index's re-key
# and its surplus probe, fleet sizing's pruned tightest-fit scan with its
# re-sorts on a sized fleet AND notify.Bus.Publish must all report 0
# allocs/op, and a host's define/undefine cycle exactly 1 allocs/op (the
# *Domain that Define returns) in at most 16 B/op (its size class), or
# the build fails: 17 gates. The
# awk gate reads allocs/op and B/op, names each required
# benchmark explicitly (matching on the name with its -GOMAXPROCS suffix
# stripped), so a renamed or silently skipped benchmark fails the build
# instead of shrinking the gate. The benchmark output is kept in
# BENCH_allocs.txt for CI to archive.
bench-allocs:
	$(GO) test -run '^$$' -bench 'PolicyPassSteadyState|DecideSteadyState|PlaceRemoveSteadyState|PressureScan' -benchmem ./internal/cluster | tee BENCH_allocs.txt
	$(GO) test -run '^$$' -bench 'SamplePassSteadyState|SamplePassSLOSteadyState|EventHeapSteadyState|EventHeapFillDrain|FleetFitSteadyState' -benchmem ./internal/clustersim | tee -a BENCH_allocs.txt
	$(GO) test -run '^$$' -bench 'StreamParams' -benchmem ./internal/trace | tee -a BENCH_allocs.txt
	$(GO) test -run '^$$' -bench 'LoadWriteViewSteadyState|RefreshWalkSteadyState|LimitWriteBatchSteadyState|DefineUndefineSteadyState' -benchmem ./internal/hypervisor | tee -a BENCH_allocs.txt
	$(GO) test -run '^$$' -bench 'UpsertRekeySteadyState|SurplusProbeSteadyState' -benchmem ./internal/cluster/capindex | tee -a BENCH_allocs.txt
	$(GO) test -run '^$$' -bench 'PublishSteadyState' -benchmem ./internal/notify | tee -a BENCH_allocs.txt
	@awk 'BEGIN { want["BenchmarkPolicyPassSteadyState"]; want["BenchmarkDecideSteadyState"]; \
			want["BenchmarkPlaceRemoveSteadyState"]; want["BenchmarkPressureScan"]; \
			want["BenchmarkSamplePassSteadyState"]; want["BenchmarkSamplePassSLOSteadyState"]; \
			want["BenchmarkEventHeapSteadyState"]; want["BenchmarkEventHeapFillDrain"]; \
			want["BenchmarkFleetFitSteadyState"]; want["BenchmarkStreamParams"]; \
			want["BenchmarkLoadWriteViewSteadyState"]; want["BenchmarkRefreshWalkSteadyState"]; \
			want["BenchmarkLimitWriteBatchSteadyState"]; \
			want["BenchmarkUpsertRekeySteadyState"]; want["BenchmarkSurplusProbeSteadyState"]; \
			want["BenchmarkPublishSteadyState"]; \
			want["BenchmarkDefineUndefineSteadyState"] = 1; maxBytes["BenchmarkDefineUndefineSteadyState"] = 16 } \
		/^Benchmark/ && $$(NF) == "allocs/op" { name = $$1; sub(/-[0-9]+$$/, "", name); \
			if (name in want) { seen[name] = 1; allocs = $$(NF-1) + 0; bytes = $$(NF-3) + 0; \
				if (allocs != want[name] + 0) { failed = 1; print "FAIL: " name " allocates " allocs " allocs/op (want " want[name] + 0 ")" } \
				if ((name in maxBytes) && bytes > maxBytes[name]) { failed = 1; print "FAIL: " name " allocates " bytes " B/op (want at most " maxBytes[name] ")" } } } \
		END { for (n in want) if (!(n in seen)) { failed = 1; print "FAIL: benchmark " n " missing from output" } \
		if (failed) exit 1; \
		print "OK: policy + placement decision + place/remove pair + pressure scan + sample (cached + re-read allocations) + SLO sample + event heap (churn + fill-drain) + sizing scan + streamed VM parameter draw + load-write view + refresh walk + batched limit write + index re-key + surplus probe + bus publish steady states at 0 allocs/op; define/undefine at 1 allocs/op, <= 16 B/op" }' BENCH_allocs.txt

# The 10M-VM point, streamed: the trace is never materialised — VM
# parameters generate at arrival, utilisation synthesizes through
# per-VM cursors — so resident memory is O(live VMs). The benchmark
# fails unless peak heap stays >= 3.5x below what the eager generator
# would allocate (streamed_test.go). It takes about 12.5 minutes on a
# 2-core box, past go test's default 10-minute timeout. Its output goes
# to BENCH_scale_10m.txt for CI to archive; the exit status is the
# benchmark's, which a pipe into tee would drop.
bench-scale-10m:
	$(GO) test -run '^$$' -bench '^BenchmarkStreamed10M$$' -benchtime 1x -timeout 40m . > BENCH_scale_10m.txt 2>&1; \
		status=$$?; cat BENCH_scale_10m.txt; exit $$status

# SLO frontier test, verbose: a 20k-VM bursty trace comparing
# proportional against latency-aware deflation on SLO violations at
# matched admitted load, across overcommitment points and under
# revocation shocks. Fails if latency-aware does not dominate: no fewer
# admissions and strictly fewer violation-seconds at every calm
# overcommitment point, and a majority of points plus the net total
# under revocation shocks.
bench-slo:
	$(GO) test -count=1 -run '^TestSLOFrontierLatencyDominates$$' -v ./internal/clustersim

# Pressure-index gate, by work count: a high-overcommit 100k-VM run
# (pressure scans dominate) executed twice — bound-pruned descent vs
# the test-side full linear scan — on one trace. Fails unless the two
# runs' results are identical (up to the scan meters), the meters add
# up, and the descent prunes at least the pinned share of the servers
# the full scan scores. The counts are deterministic: no clock, so the
# gate reads the same on any runner.
bench-pressure:
	$(GO) test -count=1 -run '^TestPressureGatePrunesWork$$' -v ./internal/cluster

# The repo's one end-to-end benchmark (BENCHMARK.json, bench/README.md):
# a full session — four workloads, timed repeats then traced passes —
# written to BENCH_e2e.json; every repeat is checked against
# bench/golden.json.
bench-e2e:
	$(GO) run ./bench -out BENCH_e2e.json

# Medians, quartiles and deltas of that session against the checked-in
# dev-box session; exits 1 when a metric is worse by more than its bound.
bench-compare:
	$(GO) run ./bench -compare bench/baseline.json BENCH_e2e.json

# The root package's sweep benchmarks (sequential and parallel sweep
# engine). The 10M-VM streamed run is left to bench-scale-10m. The
# figures and the policy and partitioning ablations are claim tests,
# run by `make test` (figures_test.go, FIGURES.md).
bench:
	$(GO) test -run '^$$' -bench '^BenchmarkSweep' -benchmem .

ci: build vet race bench-smoke bench-allocs bench-slo bench-pressure

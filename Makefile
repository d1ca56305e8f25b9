# Developer/CI entry points. `make ci` is what the GitHub Actions
# workflow runs: vet, race-enabled tests, a one-shot smoke of the
# parallel sweep benchmark, the zero-allocation gate on the placement
# policy hot path, and the 50k-VM capacity-index scale smoke (whose
# BENCH_scale.json report CI archives as a build artifact).

GO ?= go

.PHONY: build test vet race race-placement bench-smoke bench-allocs bench-scale bench-scale-1m bench-scale-10m bench-matrix bench-revocation bench-slo bench-pressure bench-e2e bench-compare bench ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race shard over placement batches and the revocation churn
# suite: capacity-shock evacuations and the engines driving them, plus
# the layers under them — one host's mutators against its readers under the
# single host lock, the batched limit write (one domain's and one pass's,
# against the per-VM writes), the hypervisor's concurrent
# offered-load writes against view reads, the manager's dirty list, the
# events built from the view and the capacity index's in-place re-key
# and payload-reading surplus probe — and what concurrent engines
# share: the trace's build-once P95 column, the lock-free notify.Bus
# publish and the sample pass's scheme billing over the metering table,
# its allocation cache against the host's epoch included — plus every
# engine run under the cluster package's test-side
# placement oracles (the oracle hook is read by concurrent sweep
# workers) — plus the outcome-record folds: the per-op placement record
# differentials, the concurrent churn folded per worker and the
# pinned scan counters — a fast, explicit signal beside the full
# `race` run.
race-placement:
	$(GO) test -race -run 'PlaceVMs|Preemption|Revo|Shock|Resize|Pressure|PlacementOracles|View|OfferedLoad|HostConcurrent|SetLimits|LimitWrites|PerVMWrites|Dirty|EventsMatch|PlaceRemovePair|Rekey|P95Column|Publish|Billing|MeteringTable|IDReuse|IDLiveTwice|LiveSetQueue|ArrivalOverlay|ArrivalDeparturePair|SamplePassVisits|FittingProbes|SurplusProbe|CachedAllocation|SamplePassAllocReads|AggregatesMatchFresh|IndexedPlacementMatchesReference|FuzzPlacementOps|ConcurrentPlaceRemove|PinnedScanCounters' ./internal/cluster ./internal/clustersim ./internal/hypervisor ./internal/cluster/capindex ./internal/trace ./internal/notify

# One iteration of the 10k-VM sweep benchmarks: proves the parallel
# engine end-to-end without the cost of a full benchmark session.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Sweep10k' -benchtime 1x .

# Zero-allocation gate: the steady-state deflate/reinflate policy pass,
# the placement decision, the pruned pressure scan, the sample pass on both sides
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
# allocs/op, or the build fails. The awk gate names each required
# benchmark explicitly (matching on the name with its -GOMAXPROCS suffix
# stripped), so a renamed or silently skipped benchmark fails the build
# instead of shrinking the gate. The benchmark output is kept in
# BENCH_allocs.txt for CI to archive.
bench-allocs:
	$(GO) test -run '^$$' -bench 'PolicyPassSteadyState|DecideSteadyState|PressureScan' -benchmem ./internal/cluster | tee BENCH_allocs.txt
	$(GO) test -run '^$$' -bench 'SamplePassSteadyState|SamplePassSLOSteadyState|EventHeapSteadyState|EventHeapFillDrain|FleetFitSteadyState' -benchmem ./internal/clustersim | tee -a BENCH_allocs.txt
	$(GO) test -run '^$$' -bench 'StreamParams' -benchmem ./internal/trace | tee -a BENCH_allocs.txt
	$(GO) test -run '^$$' -bench 'LoadWriteViewSteadyState|RefreshWalkSteadyState|LimitWriteBatchSteadyState' -benchmem ./internal/hypervisor | tee -a BENCH_allocs.txt
	$(GO) test -run '^$$' -bench 'UpsertRekeySteadyState|SurplusProbeSteadyState' -benchmem ./internal/cluster/capindex | tee -a BENCH_allocs.txt
	$(GO) test -run '^$$' -bench 'PublishSteadyState' -benchmem ./internal/notify | tee -a BENCH_allocs.txt
	@awk 'BEGIN { want["BenchmarkPolicyPassSteadyState"]; want["BenchmarkDecideSteadyState"]; \
			want["BenchmarkPressureScan"]; \
			want["BenchmarkSamplePassSteadyState"]; want["BenchmarkSamplePassSLOSteadyState"]; \
			want["BenchmarkEventHeapSteadyState"]; want["BenchmarkEventHeapFillDrain"]; \
			want["BenchmarkFleetFitSteadyState"]; want["BenchmarkStreamParams"]; \
			want["BenchmarkLoadWriteViewSteadyState"]; want["BenchmarkRefreshWalkSteadyState"]; \
			want["BenchmarkLimitWriteBatchSteadyState"]; \
			want["BenchmarkUpsertRekeySteadyState"]; want["BenchmarkSurplusProbeSteadyState"]; \
			want["BenchmarkPublishSteadyState"] } \
		/^Benchmark/ && $$(NF) == "allocs/op" { name = $$1; sub(/-[0-9]+$$/, "", name); \
			if (name in want) { seen[name] = 1; allocs = $$(NF-1) + 0; \
				if (allocs > 0) { failed = 1; print "FAIL: " name " allocates " allocs " allocs/op (want 0)" } } } \
		END { for (n in want) if (!(n in seen)) { failed = 1; print "FAIL: benchmark " n " missing from output" } \
		if (failed) exit 1; \
		print "OK: policy + placement decision + pressure scan + sample (cached + locked allocation reads) + SLO sample + event heap (churn + fill-drain) + sizing scan + streamed VM parameter draw + load-write view + refresh walk + batched limit write + index re-key + surplus probe + bus publish steady states at 0 allocs/op" }' BENCH_allocs.txt

# Cloud-scale single-run smoke: one 50k-VM deflation run through the
# capacity-indexed manager, on one goroutine, reported to
# BENCH_scale.json so the perf trajectory is tracked PR-over-PR.
bench-scale:
	$(GO) run ./cmd/benchreport -scale 50000 -scaleout BENCH_scale.json

# The 1M-VM point: an order of magnitude past the CI smoke, for
# measuring the zero-alloc engine at full cloud scale.
bench-scale-1m:
	$(GO) run ./cmd/benchreport -scale 1000000 -scaleout BENCH_scale_1m.json

# The 10M-VM point, streamed: the trace is never materialised — VM
# parameters generate at arrival, utilisation synthesizes through
# per-VM cursors — so resident memory is O(live VMs). The run fails
# unless peak heap stays >= 3.5x below what the eager generator would
# allocate (per-lifetime utilisation slices; the report also carries the
# ~30x larger horizon-resident denominator for context).
bench-scale-10m:
	$(GO) run ./cmd/benchreport -scale 10000000 -stream -scaleout BENCH_scale_10m.json

# Measured multi-core matrix: aggregate throughput and peak heap of
# GOMAXPROCS concurrent share-nothing runs at each GOMAXPROCS up to the
# core count. Fails on machines with >= 4 cores unless aggregate
# throughput scales.
bench-matrix:
	$(GO) run ./cmd/benchreport -matrix 100000 -matrixout BENCH_matrix.json

# Revocation-churn smoke: the 50k-VM run under Poisson server
# revocations (2/server/day), measuring deflation-first evacuation
# throughput (evacuations/sec in BENCH_revocation.json).
bench-revocation:
	$(GO) run ./cmd/benchreport -scale 50000 -shocks poisson -scaleout BENCH_revocation.json

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

# The root package's perf and ablation benchmarks (sweep engine, single
# runs at 10k and 100k VMs, scenario generation, mechanism / policy /
# partitioning ablations). The figures are claim tests, run by `make
# test` (figures_test.go, FIGURES.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

ci: build vet race bench-smoke bench-allocs bench-scale bench-revocation bench-slo bench-pressure

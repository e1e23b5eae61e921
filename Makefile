# Developer entry points. `make verify` is the full pre-merge gate: it
# fails on unformatted files, then builds, vets, lints (nowa-vet, the
# repo's own invariant analyzer), model-checks the steal-demand handshake
# and the admission gate (nowa-model exits non-zero if a protocol is
# violated or a planted bug goes unfound) and tests
# everything, including the race-enabled chaos/cancellation/misuse stress
# subset; then, built with -tags nowacheck, it vets and runs the real CL
# and THE deques, the CQS queue, the ring, the channel, the wait-free and
# locked joins on those deques (the §III-C race, Fibril's coupled steal)
# and the wake queue under internal/atomicx's interleaving controller
# (every schedule up to a preemption bound, the planted mutants found,
# the freeze checks); then a smoke run
# of the spawn-overhead benchmark (catches fast-path breakage that only
# -bench exercises) and the TestSpawnFloor latency gate (catches a
# goroutine switch or shared-memory traffic sneaking back onto the lazy
# spawn path). The allocation bars (TestSpawnAllocs,
# TestBlockedWaitAllocs) run with the rest of `go test ./...`.

GO ?= go

# The blocking-layer tests by name (CQS queue, the wake queue built on
# it, futures, channels, barriers, pipeline/BFS kernels, abort storms,
# the scheduler's whitebox token-handoff and parker tests, and the
# golden one-worker schedule counts): part of RACE_TEST, and what
# `block-smoke` runs on its own.
BLOCK_TESTS = TestCQS|TestWakeQueue|TestFuture|TestChannel|TestBarrier|TestBlock|TestWait|TestAbort|TestPipeline|TestBFS|TestKernel|TestWakeSlot|TestScheduleCounts

# The race-enabled stress subset, shared by `race` and `verify` so the
# two gates cannot drift apart: the name-selected stress tests of every
# package, then the whole benchmark harness (its test names match none
# of the patterns, and its workloads drive the serving and resilience
# layers from many goroutines at once).
RACE_TEST = $(GO) test -race -run 'TestChaos|TestCancel|TestPanic|TestAccounting|TestVesselPopulation|TestPromote|TestReplay|TestService|TestSubmit|TestStall|TestResilience|TestIdle|$(BLOCK_TESTS)' ./... \
	&& $(GO) test -race ./benchmark

.PHONY: verify fmt build vet lint loc test race bench bench-all trace torture serve-smoke fault-smoke block-smoke

verify:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) run ./cmd/nowa-vet ./...
	$(GO) run ./cmd/nowa-model > /dev/null
	$(GO) test ./...
	$(RACE_TEST)
	$(GO) vet -tags nowacheck . ./internal/atomicx ./internal/deque ./internal/cqs ./internal/ring ./internal/core
	$(GO) test -tags nowacheck -timeout 5m ./internal/atomicx/... ./internal/deque/... ./internal/cqs/... ./internal/ring/... ./internal/core/...
	$(GO) test -tags nowacheck -timeout 5m -run Check .
	$(GO) test -run '^$$' -bench SpawnOverhead -benchtime 10x .
	$(GO) test -run 'TestSpawnFloor' -count 1 .

fmt:
	gofmt -w .

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs nowa-vet, the stdlib-only static analyzer suite that
# enforces the scheduler's concurrency and hot-path invariants —
# atomicmix, hotpath, padguard, joinenc, lockorder and fsm (see
# DESIGN.md §10). Human-readable output; CI additionally captures
# `nowa-vet -json` as an artifact.
lint:
	$(GO) run ./cmd/nowa-vet ./...

# loc prints the number ROADMAP aim 2 is judged by: non-test Go lines
# outside benchmark/, in total and per package directory. Informational.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' \
		-not -path './.git/*' | xargs wc -l | awk '$$2 != "total" { \
		d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; \
		close("sort -k2"); printf "%7d  total\n", t }'

test:
	$(GO) test ./...

race:
	$(RACE_TEST)

# bench re-measures the repository: the spawn/sync micro-benchmarks per
# variant, then the repo benchmark — every
# workload of BENCHMARK.json in a process of its own, reports under
# benchmark/out/ (see benchmark/README.md; `-workload layers` prints the
# per-layer ledger). Nothing is compared against a committed snapshot:
# numbers from different hosts do not compare. The coarse guard against
# a goroutine switch returning to the spawn path is TestSpawnFloor, in
# `verify`; the fine one is the ledger's sched.spawn_sync_ns.
bench:
	$(GO) test -run '^$$' -bench 'SpawnOverhead|SyncOverhead' -benchtime 100000x .
	bash benchmark/run.sh

# bench-all runs the Go benchmarks once through: the real-runtime madvise
# comparison (BenchmarkFig8_Madvise) and the micro-ablations. The other
# real-runtime figure tables are `go run ./cmd/nowa-bench -bench <kernels>
# -variants <runtimes>` (Figures 1, 7, 9, 10) and `go run ./cmd/nowa-rss`
# (Table II); the simulator's 256-thread figures and Table III are
# cmd/nowa-sim's (-format csv for machine-readable).
bench-all:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# trace records Figure 4's strand-to-worker picture of a real run: the
# fib kernel on the nowa runtime at 4 workers under runtime/trace, one
# "strand" region per strand and the worker token it holds logged at its
# start and at each resume (DESIGN.md §12, "Timelines"). It writes
# torture-out/fib.trace and prints the command that opens it.
trace:
	@mkdir -p torture-out
	$(GO) test -count 1 -run 'TestSuiteOnEveryRuntime/^nowa$$/^fib$$' -trace torture-out/fib.trace ./internal/apps
	@echo "go tool trace torture-out/fib.trace"

# torture is the CI torture job, step for step: it validates the
# failure-capture pipeline (capture, meta rerun, shrink) against the
# planted Chaos.LeakVessel bug,
# soaks the scheduler for 30 seconds across kernels x variants x chaos x
# deadlines, then 15 seconds each of the abort, promote and
# stall classes — the last one the stall-recovery invariant gate;
# fault-smoke's campaign step adds the goodput bar (stall+supplement
# reads 0.96-1.00x of the clean baseline on 2 vCPUs, against 0.80).
# Repro bundles (the trial's seeds and configuration as JSON) go to
# torture-out/ on any invariant violation (see DESIGN.md §12 and
# `go run ./cmd/nowa-torture -h`).
torture:
	$(GO) run ./cmd/nowa-torture -selftest -out torture-out
	$(GO) run ./cmd/nowa-torture -duration 30s -out torture-out
	$(GO) run ./cmd/nowa-torture -duration 15s -chaos abort -out torture-out
	$(GO) run ./cmd/nowa-torture -duration 15s -chaos promote -out torture-out
	$(GO) run ./cmd/nowa-torture -duration 15s -chaos stall -out torture-out

# serve-smoke drives the admission pipeline past its capacity for a few
# seconds — the benchmark's serve-overload workload: Poisson arrivals at
# 1.4x what a FailFast queue of 32 can serve, one client retry — and
# exits non-zero unless every output, submission-conservation and leak
# check of the harness holds (report in benchmark/out/serve-overload.json;
# see DESIGN.md §13). Then a service-mode torture soak: concurrent
# submissions with mixed deadlines across the vessel-model variants and
# all three overload policies, drain quiescence and accounting checked
# every trial. Every token takes from the admission queue, so the soak
# draws up to three workers whatever the host has: the take-vs-take and
# take-vs-drain races show when tokens outnumber CPUs.
serve-smoke:
	bash benchmark/run.sh --workload serve-overload --seconds 3
	$(GO) run ./cmd/nowa-torture -service -workers 3 -duration 10s -out torture-out

# fault-smoke exercises the fault-tolerance stack (DESIGN.md §15): a
# stall-classed torture soak (injected worker stalls with stall recovery
# armed, batch and service, conservation checked every trial) and the
# nowa-serve fault campaign (baseline vs stall vs stall+supplement),
# which fails on any leak, unretired supplement, never-supplemented
# recovery run, or goodput dropping below 80% of the clean baseline while
# supplemented. The campaign's report goes
# to torture-out/serve-faults.json (git-ignored, like the repro bundles).
fault-smoke:
	$(GO) run ./cmd/nowa-torture -duration 15s -chaos stall -out torture-out
	$(GO) run ./cmd/nowa-torture -service -duration 15s -chaos stall -out torture-out
	$(GO) run ./cmd/nowa-serve -workers 4 -dur 1s

# block-smoke exercises the external blocking layer (DESIGN.md §16): the
# race-enabled blocking primitive, wake-queue and kernel tests
# (BLOCK_TESTS above; TestPipelineKernel and TestBFSKernel run both
# kernels on the four vessel-model variants and check wait conservation,
# TestScheduleCounts pins their one-worker counts), one iteration of
# BenchmarkBlockingKernels at GOMAXPROCS 1 and 2 (so the artifact shows
# what the second token costs each kernel) and of BenchmarkChannel (so
# the blocks/op and ns/block re-read and the four channel shapes cannot
# rot; their output is kept in torture-out/ for CI to upload), and an
# abort-classed torture soak — blocking kernels under
# forced wait-aborts and delayed wakeups, with the
# BlockedWaits == ResumedWaits + AbortedWaits conservation bar and the
# leak bars checked every trial.
block-smoke:
	$(GO) test -race -run '$(BLOCK_TESTS)' . ./internal/cqs/ ./internal/core/ ./internal/blockapps/ ./internal/sched/
	@mkdir -p torture-out
	{ $(GO) test -run '^$$' -bench BlockingKernels -benchtime 1x -cpu 1,2 ./internal/blockapps \
		&& $(GO) test -run '^$$' -bench 'Channel$$' -benchtime 1x . ; } > torture-out/blocking-kernels.bench.txt \
		|| { cat torture-out/blocking-kernels.bench.txt; exit 1; }
	@cat torture-out/blocking-kernels.bench.txt
	$(GO) run ./cmd/nowa-torture -duration 15s -chaos abort -out torture-out

# Developer entry points. `make verify` is the full pre-merge gate: it
# fails on unformatted files, then builds, vets, lints (nowa-vet, the
# repo's own invariant analyzer) and tests everything, including the
# race-enabled chaos/cancellation/misuse stress subset, a smoke run
# of the spawn-overhead benchmark (catches fast-path breakage that only
# -bench exercises) and the TestSpawnFloor latency gate (catches a
# goroutine switch sneaking back onto the lazy spawn path). The
# allocation bars (TestSpawnAllocs, TestBlockedWaitAllocs) run with the
# rest of `go test ./...`.

GO ?= go

# The race-enabled stress subset, shared by `race` and `verify` so the
# two gates cannot drift apart: the name-selected stress tests of every
# package, then the whole benchmark harness (its test names match none
# of the patterns, and its workloads drive the serving and resilience
# layers from many goroutines at once).
RACE_TEST = $(GO) test -race -run 'TestChaos|TestCancel|TestPanic|TestGovern|TestOverload|TestPromote|TestReplay|TestService|TestSubmit|TestStall|TestHedge|TestResilience|TestCQS|TestFuture|TestChannel|TestBarrier|TestBlock|TestWait|TestAbort|TestPipeline|TestBFS|TestKernel' ./... \
	&& $(GO) test -race ./benchmark

.PHONY: verify fmt build vet lint loc test race bench bench-all torture serve-smoke fault-smoke block-smoke

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
	$(GO) test ./...
	$(RACE_TEST)
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
# atomicmix, hotpath, padguard, joinenc, lockorder, fsm, replaycover
# (see DESIGN.md §10). Human-readable output; CI additionally captures
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

# bench regenerates the scheduler fast-path numbers: the spawn/sync
# microbenchmarks, then nowa-bench's micro mode (spawn/sync per variant
# plus the fib/nqueens/quicksort kernels), rewriting BENCH_sched.json.
# -gate reads the committed report first and fails loud if any
# vessel-model spawn median regressed more than 25% against it (the new
# report is still written, so CI uploads the evidence either way).
bench:
	$(GO) test -run '^$$' -bench 'SpawnOverhead|SyncOverhead' -benchtime 100000x .
	$(GO) run ./cmd/nowa-bench -micro -runs 3 -scale test -gate BENCH_sched.json -json BENCH_sched.json

# bench-all runs the full paper benchmark suite once through.
bench-all:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# torture validates the failure-capture pipeline against the planted
# Chaos.LeakVessel bug, then soaks the scheduler for 30 seconds across
# kernels x variants x chaos x budgets x deadlines, writing repro
# bundles to torture-out/ on any invariant violation (see DESIGN.md §12
# and `go run ./cmd/nowa-torture -h`).
torture:
	$(GO) run ./cmd/nowa-torture -selftest -out torture-out
	$(GO) run ./cmd/nowa-torture -duration 30s -out torture-out

# serve-smoke drives a short service-mode load sweep (~10s per variant):
# open-loop arrival curves against the admission pipeline, checking the
# overload-degradation and leak bars and writing BENCH_serve.json (see
# DESIGN.md §13 and `go run ./cmd/nowa-serve -h` for the full harness).
# The hard latency gate runs against the wait-free protagonist only:
# the locked-join comparators can starve the dispatcher continuation
# under sustained overload (DESIGN.md §13), so their curves are
# measured via `nowa-bench -serve` (degradation reported, not fatal)
# and their service correctness via the torture soak below.
serve-smoke:
	$(GO) run ./cmd/nowa-serve -variants nowa -policies failfast,shed \
		-dur 300ms -points 6 -start-rate 1000 -json BENCH_serve.json
	$(GO) run ./cmd/nowa-torture -service -duration 10s -out torture-out

# fault-smoke exercises the fault-tolerance stack (DESIGN.md §15): a
# stall-classed torture soak (injected worker stalls with stall recovery
# armed, batch and service, conservation checked every trial) and the
# nowa-serve fault campaign (baseline vs stall vs stall+supplement vs
# stall+supplement+hedge), which fails on any leak, unretired
# supplement, never-seized recovery run, or goodput dropping below 80%
# of the clean baseline while supplemented.
fault-smoke:
	$(GO) run ./cmd/nowa-torture -duration 15s -chaos stall -out torture-out
	$(GO) run ./cmd/nowa-torture -service -duration 15s -chaos stall -out torture-out
	$(GO) run ./cmd/nowa-serve -faults-only -workers 4 -dur 1s -json BENCH_serve_faults.json

# block-smoke exercises the external blocking layer (DESIGN.md §16): the
# race-enabled blocking primitive and kernel tests (CQS queue, futures,
# channels, barriers, pipeline/BFS kernels, abort storms, and the
# scheduler's whitebox token-handoff and parker tests), one iteration of
# BenchmarkBlockingKernels (so the blocks/op and ns/block re-read cannot
# rot; its output is kept in torture-out/ for CI to upload), one bench
# pass over both blocking kernels, and an abort-classed torture soak —
# blocking kernels under forced wait-aborts and delayed wakeups, with
# the BlockedWaits == ResumedWaits + AbortedWaits conservation bar and
# the leak bars checked every trial.
block-smoke:
	$(GO) test -race -run 'TestCQS|TestFuture|TestChannel|TestBarrier|TestBlock|TestWait|TestAbort|TestPipeline|TestBFS|TestKernel' . ./internal/cqs/ ./internal/blockapps/ ./internal/sched/
	@mkdir -p torture-out
	$(GO) test -run '^$$' -bench BlockingKernels -benchtime 1x ./internal/blockapps > torture-out/blocking-kernels.bench.txt \
		|| { cat torture-out/blocking-kernels.bench.txt; exit 1; }
	@cat torture-out/blocking-kernels.bench.txt
	$(GO) run ./cmd/nowa-bench -block -scale test -runs 3 -variants nowa,nowa-the,fibril,cilkplus
	$(GO) run ./cmd/nowa-torture -duration 15s -chaos abort -out torture-out

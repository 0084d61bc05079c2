# Build and verification entry points.
#
#   make          — tier-1: build + unit tests (the PR gate)
#   make lint     — svlint, the determinism/unit-safety analyzer suite
#                   (detrand, maporder, floateq, walltime, unitsafety,
#                   nakedrecover, ctxflow, faultflow, nakedgo, unitflow)
#   make lint-self — svlint over its own implementation (internal/lint
#                   and cmd/svlint): the analyzers must satisfy the
#                   contracts they enforce
#   make tier2    — tier-1 plus vet, svlint and the race detector over
#                   the whole tree; exercises the parallel execution
#                   engine (internal/par, the sharded CD cache, every
#                   fanned-out flow stage) under concurrent schedules
#   make cover    — coverage profile + ratcheted per-package floors
#                   (cmd/covercheck; raise floors, never lower them)
#   make ci       — the full gate: build + test + vet + lint + race
#                   + coverage floors + a 1-iteration benchmark smoke
#                   + the service and chaos smokes
#   make bench    — the serial-vs-parallel headline benchmarks
#   make bench-json — run the full benchmark suite with -benchmem and
#                   write the machine-readable summary to BENCH_10.json
#                   (cmd/benchjson); CI uploads it as an artifact
#   make bench-compare — the perf-regression gate: a short timed run of
#                   the edit/cold pair compared against the committed
#                   BENCH_9.json baseline via `benchjson compare`; the
#                   threshold is loose (2.5x) because CI runners are
#                   noisy — it catches order-of-magnitude regressions,
#                   not percent drift. go test suffixes each name with
#                   -P (GOMAXPROCS) when P > 1, so a candidate from a
#                   multi-core host (BenchmarkColdRebuild-2) matches the
#                   nproc-1 baseline's bare name when the name without
#                   the suffix is unique in both documents; -cpu sweeps
#                   still match variant by variant
#   make bench-smoke — compile and run every benchmark exactly once, so
#                   CI catches a benchmark that no longer builds or
#                   crashes without paying for a timed run
#   make bench-edit — the incremental-engine headline: edit-vs-cold on a
#                   warm c432 session, written to BENCH_9.json; the
#                   contract is ≥10× (EditApply vs ColdRebuild ns/op)
#   make bench-edit-smoke — the same pair at -benchtime 1x, so CI catches
#                   a session benchmark that no longer builds or panics
#   make service-smoke — end-to-end daemon gate: build cmd/svtimingd,
#                   start it on an ephemeral port, run a 3-request batch,
#                   diff the bytes against the service golden fixture,
#                   and require a clean SIGTERM shutdown (exit 0)
#   make chaos-smoke — the resilience gate: the in-process chaos soak
#                   (admission shedding, breaker cycling, injected
#                   faults, mid-storm drain, exact accounting identity)
#                   plus drain-under-storm against the real binary

GO ?= go

.PHONY: all tier1 tier2 lint lint-self cover ci bench bench-json bench-compare bench-smoke bench-edit bench-edit-smoke service-smoke chaos-smoke clean

all: tier1

tier1:
	$(GO) build ./...
	$(GO) test ./...

lint:
	$(GO) run ./cmd/svlint ./...

# The suite eats its own cooking: the analyzers, loader and driver must
# pass every contract they enforce on the rest of the tree.
lint-self:
	$(GO) run ./cmd/svlint ./internal/lint ./cmd/svlint

# The race pass covers the whole tree, notably internal/service (the
# flow-cache singleflight and the batch scheduler under concurrent load).
tier2: tier1
	$(GO) vet ./...
	$(GO) run ./cmd/svlint ./...
	$(GO) test -race ./...

cover:
	$(GO) test ./... -coverprofile=cover.out
	$(GO) run ./cmd/covercheck -profile cover.out

ci: tier2 lint-self cover bench-smoke bench-edit-smoke bench-compare service-smoke chaos-smoke

bench:
	$(GO) test -run xxx -bench 'Table2Timing|FullChipOPC' -benchmem .

bench-json:
	$(GO) test -run xxx -bench . -benchmem . | $(GO) run ./cmd/benchjson -out BENCH_10.json

bench-compare:
	$(GO) test -run xxx -bench 'EditApply|ColdRebuild' -benchtime 20x -benchmem ./internal/incr | $(GO) run ./cmd/benchjson -out bench_compare_candidate.json
	$(GO) run ./cmd/benchjson compare -old BENCH_9.json -new bench_compare_candidate.json -threshold 2.5

bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x .

bench-edit:
	$(GO) test -run xxx -bench 'EditApply|ColdRebuild' -benchmem ./internal/incr | $(GO) run ./cmd/benchjson -out BENCH_9.json

bench-edit-smoke:
	$(GO) test -run xxx -bench 'EditApply|ColdRebuild' -benchtime 1x ./internal/incr

service-smoke:
	$(GO) test -run TestServiceSmoke -count=1 ./cmd/svtimingd

chaos-smoke:
	$(GO) test -run 'TestChaosSoak|TestDrainUnderStorm' -count=1 ./internal/service ./cmd/svtimingd

clean:
	$(GO) clean ./...

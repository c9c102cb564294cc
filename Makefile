GO ?= go

.PHONY: all build test bench-smoke lint lint-fast vet ci test-race test-chaos test-scenarios cover fuzz

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## bench-smoke: bench/ is its own module, which `go build ./...` and
## `go test ./...` here never see; this builds it against the tree and runs
## its tests (~1 s), so an API the benchmark calls cannot break unnoticed.
bench-smoke:
	cd bench && $(GO) test .

## vet: the stock toolchain checks only.
vet:
	$(GO) vet ./...

## lint: the full static-analysis gate — go vet, the repository's own
## corropt-lint analyzer suite (nodeterminism, maprange, errwrap, mutexheld,
## lockorder, gorolife, aliasescape, stalecache, hotalloc, floatorder,
## ctxdeadline, reslife, escapes; see DESIGN.md §8), and staticcheck when
## the binary is installed. Exits non-zero on any finding;
## `//lint:allow <analyzer> <reason>` suppresses a finding on its own or
## the following line and the reason is mandatory.
lint:
	./scripts/lint.sh

## lint-fast: the 13-analyzer suite restricted to packages transitively
## affected by the git diff against LINT_DIFF_REF (default HEAD) — the
## whole module is still loaded and flow-summarized, but analyzer passes
## (including the escapes analyzer's compiler run) only cover the affected
## closure. The edit-loop companion to the full `make lint` gate; the
## pre-commit hook in scripts/pre-commit runs the same check.
LINT_DIFF_REF ?= HEAD
lint-fast:
	$(GO) run ./cmd/corropt-lint -diff $(LINT_DIFF_REF) ./...

## ci: everything the CI workflow runs, in the same order (its race job
## adds `go test -race ./internal/analysis/...`, which has no target here).
ci: build test bench-smoke lint cover test-race test-chaos test-scenarios fuzz

## test-race: the mitigation engine, the simulator and the parallel scenario
## runner under the race detector — the pool shares topologies and fault
## traces across workers, so this is the guard on that immutability contract
## (core and topology start no goroutine; each worker owns its Network and
## PathCounter). The experiments run
## covers the scenario-sharded drivers: the global RunMany work list, the
## memoized topology/trace cache under concurrent misses and FIFO eviction,
## and per-worker Scratch reuse. The fleet run pins TestFleetMatchesSerial —
## byte-identical supervisor snapshots for every shard/worker count — with
## shard drains racing on the worker pool. ctlplane, snmplite and detector
## are the packages that run one goroutine per connection or in-flight
## request: each connection's read buffer, the reply cache behind the
## controller's mutex and the clocks tests inject are what the detector
## watches there. telemetry is what the snmplite responder reads while the
## poll loop writes each observation in place (TestConcurrentReadsDuringPoll
## guards the Collector's lock); faults.State is the single-goroutine ground
## truth under it.
test-race:
	$(GO) test -race ./internal/core/... ./internal/topology/... ./internal/sim/... ./internal/runner/... ./internal/fleet/...
	$(GO) test -race ./internal/ctlplane/... ./internal/snmplite/... ./internal/detector/... ./internal/telemetry/... ./internal/faults/...
	$(GO) test -race -run 'TestParallelRunnerDeterminism|TestRunMany|TestMemoTrace|TestConcurrentRunMany|TestFleetShards' ./internal/experiments

## test-chaos: the deployment-path chaos matrix (DESIGN.md §7.3) under the
## race detector — netchaos fault injection on live TCP/UDP sockets, every
## profile × protocol × seed converging to the clean-run transcript, plus
## worker-count invariance of the full matrix replay.
test-chaos:
	$(GO) test -race ./internal/netchaos/... ./internal/integration/...

## test-scenarios: the declarative scenario gate (DESIGN.md §7.6) under the
## race detector — every profile in scenarios/ replayed at Workers=1 and
## Workers=8 against its committed golden transcript, the fig14 DSL file
## pinned against the hard-coded experiments driver, and the malformed
## corpus pinned to position-bearing errors; plus the decoder held to its
## reference and the corropt-sim binary's validate/run exit statuses.
test-scenarios:
	$(GO) test -race ./internal/scenario/... ./cmd/corropt-sim/...

## cover: per-package coverage ratchet for the deployment path (backoff,
## ctlplane, detector, netchaos, snmplite, telemetry and the faults ground
## truth under it). Fails when any package drops
## below its recorded floor; `scripts/coverage.sh update` re-records them.
cover:
	./scripts/coverage.sh

## fuzz: short smoke runs of the differential fuzzers that pin the
## incremental path-counting engine to the full-sweep reference, the
## optimizer's switch-reach pruning and segmentation to the link-cone
## reference, and Network's cached ToR fractions (and the sum of a run of
## 1.0 terms inside them) to the in-order loop, and of the protocol and
## scenario-parser fuzzers.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzIncrementalCounts -fuzztime 10s ./internal/topology
	$(GO) test -run '^$$' -fuzz FuzzFastCheckDifferential -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzOptimizerDifferential -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzToRFractionsDifferential -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzAddOnes -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzFaultyFrame -fuzztime 10s ./internal/ctlplane
	$(GO) test -run '^$$' -fuzz FuzzFaultyRequest -fuzztime 10s ./internal/snmplite
	$(GO) test -run '^$$' -fuzz FuzzFaultyResponse -fuzztime 10s ./internal/snmplite
	$(GO) test -run '^$$' -fuzz FuzzScenarioParse -fuzztime 10s ./internal/scenario

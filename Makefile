GO ?= go

.PHONY: all build test bench-smoke lint lint-fast vet ci test-race test-chaos test-scenarios cover fuzz results

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
## corropt-lint analyzer suite (the 8 analyzers nodeterminism, maprange,
## errwrap, lockorder, gorolife, ctxdeadline, reslife, escapes; see
## DESIGN.md §8), and staticcheck when
## the binary is installed. Exits non-zero on any finding;
## `//lint:allow <analyzer> <reason>` suppresses a finding on its own or
## the following line and the reason is mandatory.
lint:
	./scripts/lint.sh

## lint-fast: the 8-analyzer suite restricted to packages transitively
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
## PathCounter, and shares read-only the topology — its one adjacency array,
## whose Uplinks/Downlinks rows are clipped so an append copies, and its
## path-count order/total — and, in fleet, a shape's shardSet of routing
## tables and unit maps, and one unit topology per pod shape, which every
## shard of that shape reads). The sim
## run covers sim.RunAll, the one pooled replay path (experiments and
## scenario.Execute both call it), at workers 1 and 4 in
## TestScratchMatchesFresh. The experiments run covers every replaying
## driver: the global RunMany replay list, two concurrent RunMany batches
## building their own inputs, and per-worker Scratch reuse.
## The fleet run pins TestFleetMatchesSerial — byte-identical supervisor
## snapshots for every worker count and flush batching — with shard drains
## racing on the worker pool, two of its DCNs on one shardSet. ctlplane, snmplite and detector are the
## packages that run one goroutine per connection or in-flight request: each
## connection's read buffer, the reply cache behind the controller's mutex
## and the clocks tests inject are what the detector watches there.
## telemetry is what the snmplite responder reads while the poll loop writes
## each observation in place (TestConcurrentReadsDuringPoll guards the
## Collector's lock); faults.State is the single-goroutine ground truth
## under it.
test-race:
	$(GO) test -race ./internal/core/... ./internal/topology/... ./internal/sim/... ./internal/runner/... ./internal/fleet/...
	$(GO) test -race ./internal/ctlplane/... ./internal/snmplite/... ./internal/detector/... ./internal/telemetry/... ./internal/faults/...
	$(GO) test -race -run 'TestParallelRunnerDeterminism|TestRunMany|TestConcurrentRunMany' ./internal/experiments

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

## results: regenerate every driver at medium scale (seed 1, 2 workers) and
## compare it byte for byte with the committed results/all_medium.tsv. It
## takes ~20 s, so it stays out of `ci`; the small-scale goldens of
## TestAllExperimentsRunSmall are tier-1's copy of the same check.
results:
	@tmp=$$(mktemp) && $(GO) run ./cmd/corropt-experiments -exp all -scale medium -seed 1 -workers 2 -o $$tmp && \
		cmp $$tmp results/all_medium.tsv; status=$$?; rm -f $$tmp; exit $$status

## fuzz: short smoke runs of every fuzz target in the tree
## (TestMakeFuzzCoversEveryTarget fails on one without a line here): the
## differential fuzzers that pin the
## incremental path-counting engine to the full-sweep reference and its
## probe-then-commit split to Apply/Revert, the
## optimizer's switch-reach pruning and segmentation to the link-cone
## reference and its exact search to an independent include-first search
## that never tests a superset of a subset it rejected, an activation's skipped or narrowed re-check to the re-check
## over every active corrupting link, Network's cached ToR fractions
## (and the sum of a run of 1.0 terms inside them) to the in-order loop,
## and netstate's link indexes, faults.State's cached rates, the ticket
## queue's sparse tallies and the
## telemetry collector to their references; of the repair loop's ticket and
## hold invariants; of the sim clock's firing order against a stable sort of
## its schedule; and of the protocol codecs, their fault-injected frames and
## the scenario parser. -fuzzminimizetime 100x bounds the minimization of
## each new input, which under the 60 s default could take most of a run.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzIncrementalCounts -fuzztime 10s -fuzzminimizetime 100x ./internal/topology
	$(GO) test -run '^$$' -fuzz FuzzProbeCommit -fuzztime 10s -fuzzminimizetime 100x ./internal/topology
	$(GO) test -run '^$$' -fuzz FuzzFastCheckDifferential -fuzztime 10s -fuzzminimizetime 100x ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzOptimizerDifferential -fuzztime 10s -fuzzminimizetime 100x ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzActivationDifferential -fuzztime 10s -fuzzminimizetime 100x ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzToRFractionsDifferential -fuzztime 10s -fuzzminimizetime 100x ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzAddOnes -fuzztime 10s -fuzzminimizetime 100x ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRepairLoop -fuzztime 10s -fuzzminimizetime 100x ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzQueueDifferential -fuzztime 10s -fuzzminimizetime 100x ./internal/tickets
	$(GO) test -run '^$$' -fuzz FuzzLinksDifferential -fuzztime 10s -fuzzminimizetime 100x ./internal/core/netstate
	$(GO) test -run '^$$' -fuzz FuzzStateDifferential -fuzztime 10s -fuzzminimizetime 100x ./internal/faults
	$(GO) test -run '^$$' -fuzz FuzzCollectorDifferential -fuzztime 10s -fuzzminimizetime 100x ./internal/telemetry
	$(GO) test -run '^$$' -fuzz FuzzClockOrder -fuzztime 10s -fuzzminimizetime 100x ./internal/simclock
	$(GO) test -run '^$$' -fuzz FuzzReadMsg -fuzztime 10s -fuzzminimizetime 100x ./internal/ctlplane
	$(GO) test -run '^$$' -fuzz FuzzFaultyFrame -fuzztime 10s -fuzzminimizetime 100x ./internal/ctlplane
	$(GO) test -run '^$$' -fuzz FuzzDecodeRequest -fuzztime 10s -fuzzminimizetime 100x ./internal/snmplite
	$(GO) test -run '^$$' -fuzz FuzzDecodeResponse -fuzztime 10s -fuzzminimizetime 100x ./internal/snmplite
	$(GO) test -run '^$$' -fuzz FuzzFaultyRequest -fuzztime 10s -fuzzminimizetime 100x ./internal/snmplite
	$(GO) test -run '^$$' -fuzz FuzzFaultyResponse -fuzztime 10s -fuzzminimizetime 100x ./internal/snmplite
	$(GO) test -run '^$$' -fuzz FuzzScenarioParse -fuzztime 10s -fuzzminimizetime 100x ./internal/scenario

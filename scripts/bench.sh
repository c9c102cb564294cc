#!/bin/sh
# bench.sh — run a benchmark suite and emit a parsed JSON summary (plus the
# raw `go test` output alongside it).
#
# Usage:
#   scripts/bench.sh              # core suite (default)
#   scripts/bench.sh core         # fast checker / optimizer / path counting
#   scripts/bench.sh experiments  # experiment drivers, steady state at Workers=1
#   scripts/bench.sh fleet        # fleet supervisor events/sec, 1M-link fleet
#   scripts/bench.sh lint         # corropt-lint wall-time (load + analyze)
#
# The core suite writes BENCH_core.{txt,json}; the experiments suite runs
# BenchmarkExperimentsSuite (each multi-scenario driver at ScaleSmall with
# Workers=1) and writes BENCH_experiments.{txt,json}; the fleet suite runs
# BenchmarkFleetThroughput (sustained corruption-event throughput over the
# 30-DCN / 1M-link synthetic fleet, events/sec as a custom metric) and writes
# BENCH_fleet.{txt,json}; the lint suite runs BenchmarkLintRepo /
# BenchmarkLintLoad in internal/analysis and writes BENCH_lint.{txt,json}.
#
# The JSON is an object: a "meta" block recording the machine the numbers
# came from (benchmark results are only comparable against floors recorded
# on a matching machine — see scripts/bench_check.sh), then one object per
# benchmark line under "benchmarks", keyed by the reported units, e.g.
#   {"meta":{"suite":"core","go":"go1.24.0","gomaxprocs":8,
#    "cpu":"Intel(R) Xeon(R) ...","count":5},
#    "benchmarks":[{"name":"BenchmarkFastChecker-8","iterations":3504,
#    "ns/op":335399,"B/op":0,"allocs/op":0}, ...]}
# Custom metrics come through under their own unit names.
#
# Benchmarks from a tree that fails `make lint` are not comparable (a
# nodeterminism or mutexheld violation can silently change what the code
# under test computes), so the script refuses to run unless the lint gate is
# clean. Pass -force (or set FORCE=1) to benchmark anyway.
set -eu
cd "$(dirname "$0")/.."

FORCE=${FORCE:-0}
ARGS=
for a in "$@"; do
	case "$a" in
	-force | --force) FORCE=1 ;;
	*) ARGS="$ARGS $a" ;;
	esac
done
# shellcheck disable=SC2086
set -- $ARGS

SUITE=${1:-core}
# PKG: the package directory whose benchmarks the suite runs.
PKG=.
case "$SUITE" in
core)
	TXT=BENCH_core.txt
	JSON=BENCH_core.json
	PATTERN='FastChecker|Optimizer|PathCounting'
	COUNT=5
	;;
experiments)
	TXT=BENCH_experiments.txt
	JSON=BENCH_experiments.json
	PATTERN='ExperimentsSuite|ExperimentsBatch'
	# Each iteration replays whole experiments; one timed run per
	# sub-benchmark keeps the suite in minutes.
	COUNT=1
	;;
fleet)
	TXT=BENCH_fleet.txt
	JSON=BENCH_fleet.json
	PATTERN='FleetThroughput'
	# Each iteration replays a 200K-event stream over the 1M-link fleet;
	# one timed run per sub-benchmark is plenty of signal.
	COUNT=1
	PKG=./internal/fleet
	;;
hotpath)
	TXT=BENCH_hotpath.txt
	JSON=BENCH_hotpath.json
	PATTERN='FastChecker$|EngineReport$|PathCountingIncremental$|PenaltySum$|ActiveCorrupting$|SimSettle$|FleetRoute$'
	COUNT=1
	PKG=". ./internal/core ./internal/sim ./internal/fleet"
	;;
lint)
	TXT=BENCH_lint.txt
	JSON=BENCH_lint.json
	PATTERN='LintRepo|LintLoad'
	COUNT=3
	PKG=./internal/analysis
	;;
*)
	echo "bench.sh: unknown suite '$SUITE' (want core, experiments, fleet, hotpath, or lint)" >&2
	exit 2
	;;
esac

if [ "$FORCE" != 1 ]; then
	echo "bench.sh: checking the lint gate before benchmarking (skip with -force or FORCE=1)"
	if ! ./scripts/lint.sh >/dev/null 2>&1; then
		echo "bench.sh: tree fails 'make lint'; refusing to record benchmark numbers from a dirty tree" >&2
		echo "bench.sh: fix the findings (run 'make lint') or rerun with -force to override" >&2
		exit 1
	fi
fi

# PKG is intentionally unquoted: the hotpath suite spans several packages.
# shellcheck disable=SC2086
go test -run '^$' -bench "$PATTERN" -benchmem -count="$COUNT" $PKG | tee "$TXT"

# Machine metadata: GOMAXPROCS, the CPU model from go test's own `cpu:` line,
# and the toolchain version.
GOMAXPROCS=${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)}
GOVERSION=$(go env GOVERSION)
CPU=$(awk -F': ' '/^cpu:/ { sub(/^cpu: */, ""); print; exit }' "$TXT")
[ -n "$CPU" ] || CPU=unknown

awk -v suite="$SUITE" -v gover="$GOVERSION" -v gomaxprocs="$GOMAXPROCS" \
	-v cpu="$CPU" -v count="$COUNT" '
BEGIN {
    printf("{\n  \"meta\":{\"suite\":\"%s\",\"go\":\"%s\",\"gomaxprocs\":%s,\"cpu\":\"%s\",\"count\":%s},\n", suite, gover, gomaxprocs, cpu, count)
    print "  \"benchmarks\":["
    first = 1
}
/^Benchmark/ && NF >= 4 {
    if (!first) printf(",\n")
    first = 0
    printf("    {\"name\":\"%s\",\"iterations\":%s", $1, $2)
    for (i = 3; i + 1 <= NF; i += 2)
        printf(",\"%s\":%s", $(i + 1), $i)
    printf("}")
}
END { print "\n  ]\n}" }
' "$TXT" > "$JSON"

echo "wrote $JSON"

#!/bin/sh
# coverage.sh — per-package coverage ratchet for the deployment path and
# the fleet supervisor.
#
# The chaos harness (DESIGN.md §7.3) is only worth its keep while the
# protocol packages it exercises stay well covered, and the fleet
# supervisor's determinism contract (DESIGN.md §7.5) only while its shard /
# merge / snapshot paths are, so this gate fails the build when any
# ratcheted package's statement coverage drops below its recorded floor.
# telemetry and faults are the counters and the ground truth every one of
# those packages is driven from.
#
# Usage:
#   scripts/coverage.sh          check against scripts/coverage_floors.txt
#   scripts/coverage.sh update   re-measure and rewrite the floors (set a
#                                little below the measurement so unrelated
#                                refactors don't trip the gate)
#
# The floors file is one "import-path floor-percent" pair per line and is
# committed: lowering a floor is a reviewed decision, never an accident.
set -eu
cd "$(dirname "$0")/.."

PACKAGES="corropt/internal/backoff corropt/internal/ctlplane corropt/internal/detector corropt/internal/faults corropt/internal/fleet corropt/internal/netchaos corropt/internal/scenario corropt/internal/snmplite corropt/internal/telemetry"
FLOORS=scripts/coverage_floors.txt
MARGIN=2.0 # update mode records measured - MARGIN
mode="${1:-check}"

# measure prints "import-path percent" per package, e.g.
# "corropt/internal/snmplite 87.3".
measure() {
	# shellcheck disable=SC2086 # PACKAGES is a deliberate word list
	go test -count=1 -cover $PACKAGES |
		awk '/coverage:/ { pct = $5; gsub(/%/, "", pct); print $2, pct }'
}

measured="$(measure)"
if [ -z "$measured" ]; then
	echo "coverage: no coverage output parsed; did the tests fail?" >&2
	exit 1
fi

case "$mode" in
update)
	printf '%s\n' "$measured" | awk -v m="$MARGIN" '{
		floor = $2 - m
		if (floor < 0) floor = 0
		printf "%s %.1f\n", $1, floor
	}' >"$FLOORS"
	echo "coverage: floors updated:"
	cat "$FLOORS"
	;;
check)
	if [ ! -f "$FLOORS" ]; then
		echo "coverage: $FLOORS missing; run scripts/coverage.sh update" >&2
		exit 1
	fi
	status=0
	for pkg in $PACKAGES; do
		got="$(printf '%s\n' "$measured" | awk -v p="$pkg" '$1 == p { print $2 }')"
		floor="$(awk -v p="$pkg" '$1 == p { print $2 }' "$FLOORS")"
		if [ -z "$got" ]; then
			echo "coverage: $pkg: no measurement (package gone or tests failed)" >&2
			status=1
			continue
		fi
		if [ -z "$floor" ]; then
			echo "coverage: $pkg: no floor recorded; run scripts/coverage.sh update" >&2
			status=1
			continue
		fi
		if awk -v g="$got" -v f="$floor" 'BEGIN { exit !(g < f) }'; then
			echo "coverage: $pkg: ${got}% is below the ${floor}% floor" >&2
			status=1
		else
			echo "coverage: $pkg: ${got}% (floor ${floor}%)"
		fi
	done
	if [ "$status" -ne 0 ]; then
		echo "coverage: FAILED" >&2
		exit 1
	fi
	echo "coverage: OK"
	;;
*)
	echo "usage: scripts/coverage.sh [check|update]" >&2
	exit 2
	;;
esac

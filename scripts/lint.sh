#!/bin/sh
# lint.sh — the full static-analysis gate run by `make lint` and CI.
#
# Three layers, strictest first:
#   1. go vet            — the stock toolchain checks.
#   2. corropt-lint      — this repository's own analyzer suite
#                          (the 8 analyzers nodeterminism, maprange,
#                          errwrap, lockorder, gorolife, ctxdeadline,
#                          reslife, escapes; DESIGN.md §8). Self-contained on the
#                          standard library — the escapes analyzer shells
#                          out to the pinned go toolchain for its
#                          optimization-diagnostics pass — so it runs
#                          offline and hermetically.
#   3. staticcheck       — run when the binary is on PATH; skipped with a
#                          warning otherwise so the gate stays green in
#                          hermetic environments without network access.
#                          CI and developer machines with staticcheck
#                          installed get the full check.
#
# Exit status is non-zero if any enabled layer reports a finding.
set -eu
cd "$(dirname "$0")/.."

status=0

echo "== go vet =="
go vet ./... || status=1

echo "== corropt-lint =="
go run ./cmd/corropt-lint ./... || status=1

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./... || status=1
else
	echo "staticcheck not installed; skipping (binary not on PATH)"
fi

if [ "$status" -ne 0 ]; then
	echo "lint: FAILED" >&2
	exit 1
fi
echo "lint: OK"

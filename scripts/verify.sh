#!/bin/sh
# verify.sh — the repository's verification gate.
#
# Runs, in order:
#   1. go build ./...               every package compiles
#   2. gofmt -l                     every tracked .go file is gofmt-clean,
#                                     except testdata/: the allocfree
#                                     fixture's comment alignment is golden
#                                     data the analyzer tests compare against
#   3. go vet ./...                 stdlib vet analyzers
#   4. go run ./cmd/scoop-lint ./...  project analyzers — per-package
#                                     (closebody, errwrap, lockheld, chanleak,
#                                     slotleak, ctxpropagate) and whole-module
#                                     call-graph (lockorder, goroleak,
#                                     sandboxpure, filterdet, allocfree); warm
#                                     runs replay from the mtime-keyed cache
#   5. scoop-lint -only allocfree   the zero-alloc hot-path proof, re-run
#                                     standalone (warm: replays from cache) so
#                                     a broken //scoop:hotpath root fails with
#                                     its own named step in the gate output
#   6. go test -race -short ./...   fast-tier suite under the race detector
#   7. go test -run TestAllocBudget   zero-allocation budgets for the record
#                                     hot path — a separate non-race step
#                                     because the //go:build !race budget
#                                     tests need uninstrumented allocation
#                                     counts (the race detector allocates)
#   8. (cd e2ebench && go test .)   the end-to-end benchmark's own module,
#                                     outside ./...: every workload at tiny
#                                     scale, the answer oracle and
#                                     TestTracedPathMatchesQuery (~8 s)
#
# The chaos suite (TestChaos* in internal/integration) skips itself under
# -short; CI runs it as its own race-enabled job, and locally it runs with
#   go test -race -run 'TestChaos' ./internal/integration/
#
# Any failure stops the gate. Run it from the repository root (or anywhere
# inside the module; it cd's to the script's parent directory).
set -e
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l (tracked .go files outside testdata/)"
unformatted=$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> scoop-lint ./..."
go run ./cmd/scoop-lint ./...

echo "==> scoop-lint -only allocfree ./... (zero-alloc hot-path proof)"
go run ./cmd/scoop-lint -only allocfree ./...

echo "==> go test -race -short ./..."
go test -race -short ./...

echo "==> go test -run TestAllocBudget (alloc budgets, no race)"
go test -run TestAllocBudget ./internal/csvio/ ./internal/pushdown/ ./internal/storlet/csvfilter/

echo "==> (cd e2ebench && go test .) (end-to-end benchmark module)"
(cd e2ebench && go test .)

echo "verify: all gates passed"

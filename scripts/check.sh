#!/usr/bin/env bash
# Tier-1.5 verification gate: formatting, vet, project lints, and the race-
# enabled test suite with runtime invariant checks compiled in. Run from the
# repository root:
#
#   ./scripts/check.sh
#
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -s -l . | grep -v '^cmd/hypatialint/testdata/' || true)
if [[ -n "$unformatted" ]]; then
    echo "files need gofmt -s -w:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== build (both variants) =="
go build ./...
go build -tags hypatia_checks ./...

echo "== build hypatialint =="
go build -o bin/hypatialint ./cmd/hypatialint

echo "== hypatialint =="
./bin/hypatialint ./...

echo "== hypatialint -json (machine-readable output stays well-formed) =="
./bin/hypatialint -json ./... > /dev/null

echo "== hypatialint self-check (fixtures must fail) =="
if ./bin/hypatialint ./cmd/hypatialint/testdata/src/... >/dev/null; then
    echo "hypatialint reported the fixture tree clean; the analyzer is broken" >&2
    exit 1
fi

# Each seeded fixture must fail the lint with its explanation rendered in
# full, in text and -json output alike: the confine fixture's escape bugs
# with the allocation-to-escape path, the handles fixture's stale handles
# with the acquire → invalidate → use path, the allocsafety fixture's
# allocations with the originating site and call chain (including a
# multi-hop chain through summarized callees). One row per assertion:
# stanza title | fixture dir | lint flag | grep pattern | failure message.
# (The lint exits 1 on the findings, so capture before grepping.)
stanza=""
while IFS='|' read -r title dir flag pattern message; do
    if [[ "$title" != "$stanza" ]]; then
        echo "== hypatialint self-check ($title) =="
        stanza="$title"
    fi
    # shellcheck disable=SC2086  # $flag is empty or one word
    found=$(./bin/hypatialint $flag "./cmd/hypatialint/testdata/src/$dir" 2>/dev/null || true)
    if ! grep -q "$pattern" <<<"$found"; then
        echo "$message" >&2
        exit 1
    fi
done <<'ROWS'
confinement escape paths|confine||confinement.*escape path:|no confinement finding with an escape path in text output
confinement escape paths|confine|-json|escape path:|no confinement finding with an escape path in -json output
handlesafety invalidation paths|internal/sim/handles||handlesafety.*→ invalidated by.*→ used here|no handlesafety finding with an acquire → invalidate → use path in text output
handlesafety invalidation paths|internal/sim/handles|-json|→ invalidated by|no handlesafety finding with its invalidation path in -json output
allocsafety origin chains|allocsafety||allocsafety.*//hypatia:noalloc.*allocates at.*call chain:|no allocsafety finding with an allocation site and call chain in text output
allocsafety origin chains|allocsafety||call chain: allocsafety.entry → allocsafety.helper → allocsafety.mid|no allocsafety finding with a multi-hop origin chain in text output
allocsafety origin chains|allocsafety|-json|call chain:|no allocsafety finding with its origin chain in -json output
ROWS

echo "== alloc guards (default build, GOMAXPROCS=1) =="
# The runtime half of //hypatia:noalloc: testing.AllocsPerRun pins the
# steady-state hot paths to their budgets. Run in the default build — the
# hypatia_checks build boxes assertion arguments and runs from-scratch
# oracles, so the guards skip there — at GOMAXPROCS=1 so background
# scheduling cannot smear allocations across the measured runs.
GOMAXPROCS=1 go test -count=1 -run 'TestAllocGuard' \
    ./internal/graph/ ./internal/routing/ ./internal/sim/

echo "== incremental oracle exercised (comparison count must be nonzero) =="
# The differential layer is only as good as the oracle actually running:
# these tests fail unless the hypatia_checks oracle re-derived and compared
# a nonzero number of forwarding columns against the incremental engine.
go test -tags hypatia_checks -count=1 \
    -run 'TestIncrementalOracleExercised|TestDifferentialIncrementalSequences' \
    ./internal/routing/ ./internal/core/

echo "== go test -race -tags hypatia_checks (shuffled) =="
go test -race -tags hypatia_checks -shuffle=on ./...

echo "ALL CHECKS PASSED"

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

echo "== hypatialint self-check (confinement escape paths) =="
# The seeded escape bugs in the confine fixture must fail the lint with the
# full allocation-to-escape path rendered, in text and -json output alike.
# (The lint exits 1 on the findings, so capture before grepping.)
conftext=$(./bin/hypatialint ./cmd/hypatialint/testdata/src/confine 2>/dev/null || true)
if ! grep -q 'confinement.*escape path:' <<<"$conftext"; then
    echo "no confinement finding with an escape path in text output" >&2
    exit 1
fi
confjson=$(./bin/hypatialint -json ./cmd/hypatialint/testdata/src/confine 2>/dev/null || true)
if ! grep -q 'escape path:' <<<"$confjson"; then
    echo "no confinement finding with an escape path in -json output" >&2
    exit 1
fi

echo "== hypatialint self-check (handlesafety invalidation paths) =="
# The seeded handle bugs in the handles fixture must fail the lint with the
# full acquire → invalidate → use path rendered, in text and -json alike.
handtext=$(./bin/hypatialint ./cmd/hypatialint/testdata/src/internal/sim/handles 2>/dev/null || true)
if ! grep -q 'handlesafety.*→ invalidated by.*→ used here' <<<"$handtext"; then
    echo "no handlesafety finding with an acquire → invalidate → use path in text output" >&2
    exit 1
fi
handjson=$(./bin/hypatialint -json ./cmd/hypatialint/testdata/src/internal/sim/handles 2>/dev/null || true)
if ! grep -q '→ invalidated by' <<<"$handjson"; then
    echo "no handlesafety finding with its invalidation path in -json output" >&2
    exit 1
fi

echo "== hypatialint self-check (allocsafety origin chains) =="
# The seeded allocation bugs in the allocsafety fixture must fail the lint
# with the originating site and the full call chain rendered — including a
# multi-hop chain through summarized callees — in text and -json alike.
alloctext=$(./bin/hypatialint ./cmd/hypatialint/testdata/src/allocsafety 2>/dev/null || true)
if ! grep -q 'allocsafety.*//hypatia:noalloc.*allocates at.*call chain:' <<<"$alloctext"; then
    echo "no allocsafety finding with an allocation site and call chain in text output" >&2
    exit 1
fi
if ! grep -q 'call chain: allocsafety.entry → allocsafety.helper → allocsafety.mid' <<<"$alloctext"; then
    echo "no allocsafety finding with a multi-hop origin chain in text output" >&2
    exit 1
fi
allocjson=$(./bin/hypatialint -json ./cmd/hypatialint/testdata/src/allocsafety 2>/dev/null || true)
if ! grep -q 'call chain:' <<<"$allocjson"; then
    echo "no allocsafety finding with its origin chain in -json output" >&2
    exit 1
fi

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

#!/usr/bin/env bash
# Tier-1.5 verification gate: formatting, vet, project lints, and the race-
# enabled test suite with runtime invariant checks compiled in. Run from the
# repository root:
#
#   ./scripts/check.sh
#
# Exits non-zero on the first failure. Each stage's wall time is printed as
# it finishes ("-- <stage>: N s").
set -euo pipefail
cd "$(dirname "$0")/.."

# stage closes the previous stage with its elapsed seconds and opens the
# next; an empty name only closes.
stage_name=""
stage() {
    if [[ -n "$stage_name" ]]; then
        echo "-- $stage_name: $((SECONDS - stage_start)) s"
    fi
    stage_name=$1
    stage_start=$SECONDS
    if [[ -n "$stage_name" ]]; then
        echo "== $stage_name =="
    fi
}

stage "gofmt"
unformatted=$(gofmt -s -l . | grep -v '^cmd/hypatialint/testdata/' || true)
if [[ -n "$unformatted" ]]; then
    echo "files need gofmt -s -w:" >&2
    echo "$unformatted" >&2
    exit 1
fi

stage "go vet"
go vet ./...

stage "build (both variants)"
go build ./...
go build -tags hypatia_checks ./...

stage "build hypatialint"
go build -o bin/hypatialint ./cmd/hypatialint

stage "hypatialint"
./bin/hypatialint ./...

stage "hypatialint self-check (fixtures must fail)"
if ./bin/hypatialint ./cmd/hypatialint/testdata/src/... >/dev/null; then
    echo "hypatialint reported the fixture tree clean; the analyzer is broken" >&2
    exit 1
fi

stage "alloc guards (default build, GOMAXPROCS=1)"
# The allocation contract (there is no static half): testing.AllocsPerRun
# pins the steady-state hot paths to their budgets. Run in the default build
# — the hypatia_checks build boxes assertion arguments and runs from-scratch
# oracles, so the guards skip there — at GOMAXPROCS=1 so background
# scheduling cannot smear allocations across the measured runs. In
# internal/sim and internal/transport the guards are the event queue, the
# packet path, the UDP send/deliver loop, a sim.Timer's Reset/Stop/fire
# (TestAllocGuardTimer) and TCP's retransmission and delayed-ACK timer arms
# (TestAllocGuardTCPTimers), and 10 ms of a bulk NewReno transfer
# (TestAllocGuardTCPSteadyState), every one at 0, plus 100 virtual s of that
# transfer under 64 KiB (TestAllocGuardTCPHorizon: a flow records no
# per-packet log unless asked) and a sharded run's windows and hook journal
# at its per-call setup (TestAllocGuardShardedWindow). In internal/routing,
# internal/core and internal/analysis the TestAllocGuardBench* tests hold six
# benchmarks' timed regions (SnapshotInto, ForwardingTableFull,
# ForwardingStateIncremental, SimSerial, SimSerialTCP, AnalyzePairsS1) to
# their allocs/op budgets, on each benchmark's own setup. The -run prefix
# picks up every TestAllocGuard* by name, so a new guard needs no edit here. Two
# more pin where a run's forwarding-state memory is allocated, which is what
# keeps a benchmark's timed-region allocation from depending on the
# scheduler: the incremental engine sizes every arena in its first step, and
# the pipeline never needs a table beyond the ones it reserves.
GOMAXPROCS=1 go test -count=1 \
    -run 'TestAllocGuard|TestEngineAllocatesArenasOnlyInFirstStep|TestPipelineHoldsAtMostReservedTables' \
    ./internal/graph/ ./internal/routing/ ./internal/analysis/ ./internal/sim/ ./internal/transport/ ./internal/core/

stage "incremental oracle exercised (comparison count must be nonzero)"
# The differential layer is only as good as the oracle actually running:
# these tests fail unless the hypatia_checks oracle re-derived and compared
# a nonzero number of shortest-path trees against the incremental engine,
# for forwarding tables (routing, core) and for the stepped analyses.
go test -tags hypatia_checks -count=1 \
    -run 'TestIncrementalOracleExercised|TestDifferentialIncrementalSequences' \
    ./internal/routing/ ./internal/core/ ./internal/analysis/

stage "hypatialint tests (plain, shuffled)"
# The analyzer has no go statement, no sync use and no internal/check
# assertion, so -race and the hypatia_checks tag buy its tests nothing and
# cost them 8x; they run plain, and the race suite below skips them.
go test -shuffle=on ./cmd/hypatialint/

stage "go test -race -tags hypatia_checks (shuffled)"
# shellcheck disable=SC2046
go test -race -tags hypatia_checks -shuffle=on $(go list ./... | grep -v /cmd/hypatialint)

stage ""
echo "ALL CHECKS PASSED in $SECONDS s"

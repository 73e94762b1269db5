#!/usr/bin/env bash
# Tier-1.5 verification gate: formatting, vet, both build variants, an arm64
# cross-build and vet (the only build of the event queue's no-op prefetch,
# which stands in for its amd64 assembly elsewhere), the allocation guards,
# and the race-enabled test suite with runtime invariant checks compiled in
# (the project's one static check, TestNoDroppedErrors, is a root-package
# test and runs there). Run from the repository root:
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
unformatted=$(gofmt -s -l .)
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

stage "arm64 cross-build and vet"
# internal/sim prefetches with amd64 assembly and builds a no-op in its
# place on every other architecture; no other stage compiles that file.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/sim/

stage "alloc and work guards (default build, GOMAXPROCS=1)"
# The allocation contract (there is no static half): testing.AllocsPerRun
# pins the steady-state hot paths to their budgets. Run in the default build
# without -race — the hypatia_checks build boxes assertion arguments and runs
# from-scratch oracles, and the race runtime allocates on the program's
# behalf, so the guards skip in both — at GOMAXPROCS=1 so background
# scheduling cannot smear allocations across the measured runs. In
# internal/sim and internal/transport the guards are the event queue, the
# packet path, the UDP send/deliver loop, a sim.Timer's Reset/Stop/fire
# (TestAllocGuardTimer) and TCP's retransmission and delayed-ACK timer arms
# (TestAllocGuardTCPTimers), and 10 ms of a bulk NewReno transfer
# (TestAllocGuardTCPSteadyState), every one at 0, plus 100 virtual s of that
# transfer under 64 KiB (TestAllocGuardTCPHorizon: a flow records no
# per-packet log unless asked). In internal/routing,
# internal/core and internal/analysis the TestAllocGuardBench* tests hold six
# benchmarks' timed regions (SnapshotInto, ForwardingTableFull,
# ForwardingStateIncremental, SimSerial, SimSerialTCP, AnalyzePairsS1) to
# their allocs/op budgets, on each benchmark's own setup; the two analysis
# guards build their sweep at GOMAXPROCS 2, so the tree split's helper runs
# in the measured steps even here. TestAllocGuardConstructionTopology
# (internal/routing) and TestAllocGuardConstructionRun (internal/core) hold
# construction — Generate(Starlink()) + NewTopology, and NewRun + Close on
# fstate_k1's configuration — to 40 and 2 000 allocations, so that it
# allocates per structure, not per satellite or node. The -run prefix
# picks up every TestAllocGuard* by name, so a new guard needs no edit here. Two
# more pin where a run's forwarding-state memory is allocated, which is what
# keeps a benchmark's timed-region allocation from depending on the
# scheduler: the incremental engine sizes every arena in its first step, and
# the pipeline never needs a table beyond the ones it reserves. The
# TestWorkGuard* tests hold work counts to budgets the same way (in
# internal/core on fstate_k1's shape and in internal/analysis on
# analysis_s1_pairs': graph builds per instant, second-pass nodes per tree,
# table entries set to -1 per instant; TestWorkGuardPacketPath in
# internal/core on 200 ms of udp_perm100's shape: events processed, receives
# linked behind a FIFO head against FIFO heads and fallbacks, pops served by
# the event queue's sorted run (RunPops, at least 40 %) and inserts that took
# the queue's minimum (RootPushes), from sim.Simulator.Work; and its twin
# TestWorkGuardPacketPathTCP on 2 s of tcp_perm100's shape, which pins that
# workload's event mix); the -run prefix picks up new ones too.
GOMAXPROCS=1 go test -count=1 \
    -run 'TestAllocGuard|TestWorkGuard|TestEngineAllocatesArenasOnlyInFirstStep|TestPipelineHoldsAtMostReservedTables' \
    ./internal/graph/ ./internal/routing/ ./internal/analysis/ ./internal/sim/ ./internal/transport/ ./internal/core/

stage "incremental oracle exercised (comparison count must be nonzero)"
# The differential layer is only as good as the oracle actually running:
# these tests fail unless the hypatia_checks oracle re-derived and compared
# a nonzero number of shortest-path trees against the incremental engine,
# for forwarding tables (routing, core) and for the stepped analyses.
go test -tags hypatia_checks -count=1 \
    -run 'TestIncrementalOracleExercised|TestDifferentialIncrementalSequences' \
    ./internal/routing/ ./internal/core/ ./internal/analysis/

stage "go test -race -tags hypatia_checks (shuffled)"
go test -race -tags hypatia_checks -shuffle=on ./...

stage ""
echo "ALL CHECKS PASSED in $SECONDS s"

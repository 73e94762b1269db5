#!/usr/bin/env bash
# Forwarding-state benchmark harness: runs the routing, core and analysis
# benchmarks with -benchmem at both GOMAXPROCS=1 and a wide setting (nproc,
# floored at 2) — the single-core run isolates per-op cost, the wide run
# measures the sharded event loop under real concurrency — and emits
# machine-readable results to BENCH_routing.json in the repository root,
# enforcing the checked-in allocation budgets (alloc_budgets below) on the
# way.
# Run from anywhere:
#
#   ./scripts/bench.sh [benchtime]
#
# benchtime defaults to 5x (per-benchmark iterations); pass e.g. 2s for
# time-based runs on faster machines.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-5x}"
out="BENCH_routing.json"
nproc_val="$(nproc)"
# The wide run is GOMAXPROCS=nproc: one thread per hardware thread, never
# more, so sharded_over_serial is a parallel speedup and not the cost of
# oversubscription (4 threads on 2 vCPUs measured 1.3-1.4x where 2 threads
# measure 1.5-1.6x). It is floored at 2 so the capture always exercises
# GOMAXPROCS>1; on a single-vCPU host that measures scheduler interleaving —
# the JSON records nproc alongside, so the two cases stay distinguishable.
wide=$(( nproc_val > 2 ? nproc_val : 2 ))
raw1="$(mktemp)"
rawN="$(mktemp)"
trap 'rm -f "$raw1" "$rawN"' EXIT

# alloc_budgets pins steady-state allocs/op for the hot-path benchmarks; with
# the per-function AllocGuard tests they are the whole allocation contract
# (there is no static half, DESIGN.md "Removed, and why: allocsafety").
# Budgets leave headroom over the measured steady state — SnapshotInto and
# the pooled sweep measure 0–1, the incremental engine ~10–20 per 8-step op
# of amortized arena residue — so only a real regression (losing a reuse
# path, a new per-op allocation) trips them.
# BenchmarkSimSerial is the packet path end to end: ~1.0M events allocate
# ~40 times: one event-slab page per 1 024 records up to the in-flight
# high-water (a packet rides inside its event's record), then the position
# cache and the heap growing while the links fill. It read 149 with a second
# pool of packet pages and a packet free list beside the slab, ~25.8k with
# one new Packet per record up to that high-water and the slab regrown by
# append, and a packet path that allocated once per packet again would read
# 500k.
# BenchmarkSimSerialTCP is the same on the TCP shape: ~940 allocs/op —
# nearly all the scoreboard rings (sndRing, oooRing) growing, then the slab
# pages — since the TCP header rides by value in Packet, the per-segment
# state in a ring per flow end, a flow records its three per-ACK logs only
# when asked (TCPConfig.RecordLogs), and packets ride in the event slab.
# With packet pages of their own it read 986, with one new Packet per record
# 8.0k, with the logs on by default 10.6k, with a boxed segment payload per
# data segment and ACK and five sequence maps per flow on top 146k, and with
# a fresh closure per retransmission- and delayed-ACK-timer arm as well, as
# before sim.Timer, 185k.
# BenchmarkAnalyzePairsS1 is 8 steps of the stepped analysis on the engine:
# 57 allocs/op at the default 5x (steps 17-57 of a run, where a pair's stored
# satellite sequence or a visibility list still meets a new longest now and
# then; less at longer benchtimes); a sweep that materialised its 4 950 paths
# per step again would read hundreds of thousands.
# Every budgeted benchmark gets "alloc_budget"/"alloc_budget_status" fields
# in the JSON, and any "over" status fails the run.
alloc_budgets="BenchmarkSnapshotInto=8 BenchmarkForwardingTableFull=16 BenchmarkForwardingTablePooled=8 BenchmarkForwardingStateIncremental=100 BenchmarkSimSerial=100 BenchmarkSimSerialTCP=1500 BenchmarkAnalyzePairsS1=75"

# budget_check fails when any benchmark came out over its pinned budget — the
# bench harness' counterpart of a failing AllocGuard test.
budget_check() { # $1 = json file
    if grep -q '"alloc_budget_status": "over"' "$1"; then
        echo "bench.sh: allocation budget exceeded (allocs_per_op over alloc_budget):" >&2
        grep '"alloc_budget_status": "over"' "$1" >&2
        return 1
    fi
}

# bench_once runs the full bench suite at one GOMAXPROCS setting.
bench_once() { # $1 = gomaxprocs, $2 = raw output file
    GOMAXPROCS="$1" go test -run '^$' \
        -bench 'Snapshot$|SnapshotInto|ForwardingTableFull|ForwardingTablePooled' \
        -benchtime "$benchtime" -benchmem -count=1 ./internal/routing/ | tee -a "$2"
    GOMAXPROCS="$1" go test -run '^$' \
        -bench 'ForwardingStateSerial|ForwardingStateIncremental' \
        -benchtime "$benchtime" -benchmem -count=1 ./internal/core/ | tee -a "$2"
    GOMAXPROCS="$1" go test -run '^$' \
        -bench 'SimSerial|SimSharded' \
        -benchtime "$benchtime" -benchmem -count=1 ./internal/core/ | tee -a "$2"
    GOMAXPROCS="$1" go test -run '^$' \
        -bench 'AnalyzePairsS1' \
        -benchtime "$benchtime" -benchmem -count=1 ./internal/analysis/ | tee -a "$2"
}

# run_json renders one raw bench log as a JSON run object. Metrics are
# parsed by scanning each line for value/unit field pairs (ns/op, B/op,
# allocs/op, events/s) rather than by column position, so benchmarks that
# b.ReportMetric extra columns (events/s) do not shift the layout. Every
# speedup ratio that comes out below 1.0 gets a sibling "<name>_note"
# recording the captured nproc — a sharded engine on a single-vCPU host is
# expected to be at or below 1x, and the JSON must say so rather than look
# like a regression.
run_json() { # $1 = raw file, $2 = gomaxprocs used
    awk -v gmp="$2" -v nproc="$nproc_val" -v budgets="$alloc_budgets" '
BEGIN {
    nb = split(budgets, bl, " ")
    for (i = 1; i <= nb; i++) {
        split(bl[i], kv, "=")
        budget[kv[1]] = kv[2] + 0
    }
}
function emit_ratio(key, num, den,    r) {
    if (num > 0 && den > 0) {
        r = num / den
        ratios[nr++] = sprintf("      \"%s\": %.3f", key, r)
        if (r < 1.0)
            ratios[nr++] = sprintf("      \"%s_note\": \"ratio below 1.0 measured with nproc=%d; see README for expected scaling on narrow hosts\"", key, nproc)
    } else {
        ratios[nr++] = sprintf("      \"%s\": null", key)
    }
}
/^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    order[n++] = name
    for (i = 3; i < NF; i++) {
        if      ($(i+1) == "ns/op")     ns[name]     = $i
        else if ($(i+1) == "B/op")      bytes[name]  = $i
        else if ($(i+1) == "allocs/op") allocs[name] = $i
        else if ($(i+1) == "events/s")  eps[name]    = $i
    }
}
END {
    printf "    {\n"
    printf "      \"gomaxprocs\": %d,\n", gmp
    printf "      \"cpu\": \"%s\",\n", cpu
    printf "      \"benchmarks\": {\n"
    for (i = 0; i < n; i++) {
        name = order[i]
        printf "        \"%s\": {\"ns_per_op\": %s", name, ns[name]
        # One ForwardingState* op is 8 update instants (benchInstants).
        if (name ~ /^BenchmarkForwardingState/) printf ", \"ns_per_instant\": %d", ns[name] / 8
        # One AnalyzePairs op is 8 analysis steps (analyzeStepsPerOp).
        if (name ~ /^BenchmarkAnalyzePairs/) printf ", \"ns_per_step\": %d", ns[name] / 8
        if (name in eps)    printf ", \"events_per_second\": %s", eps[name]
        if (name in bytes)  printf ", \"bytes_per_op\": %s", bytes[name]
        if (name in allocs) printf ", \"allocs_per_op\": %s", allocs[name]
        if (name in budget && name in allocs) {
            printf ", \"alloc_budget\": %d", budget[name]
            printf ", \"alloc_budget_status\": \"%s\"", (allocs[name] + 0 > budget[name]) ? "over" : "ok"
        }
        printf "}%s\n", (i < n - 1) ? "," : ""
    }
    printf "      },\n"
    nr = 0
    emit_ratio("serial_over_incremental", ns["BenchmarkForwardingStateSerial"], ns["BenchmarkForwardingStateIncremental"])
    emit_ratio("sharded_over_serial",     ns["BenchmarkSimSerial"],             ns["BenchmarkSimSharded/shards=4"])
    emit_ratio("sharded_over_serial_tcp", ns["BenchmarkSimSerialTCP"],          ns["BenchmarkSimShardedTCP/shards=4"])
    for (i = 0; i < nr; i++)
        printf "%s%s\n", ratios[i], (i < nr - 1) ? "," : ""
    printf "    }"
}' "$1"
}

# --selftest: render a canned bench log through run_json and assert the
# JSON schema (benchmark entries, ratio fields, alloc budget statuses)
# comes out right — including that budget_check rejects an over-budget
# run — then exit without running any benchmarks. Wired into go test so
# schema regressions in the awk above fail the suite, not the next bench
# run.
if [[ "${1:-}" == "--selftest" ]]; then
    self="$(mktemp)"
    # The canned log mixes plain -benchmem lines with ReportMetric lines
    # (events/s inserted before B/op), makes sharded_over_serial come out
    # below 1.0 so the nproc annotation path is exercised, keeps the
    # incremental engine inside its allocation budget ("ok"), and regresses
    # SnapshotInto to its pre-arena-warmup 854 allocs/op so the "over"
    # status and the budget_check failure path are exercised too. SimSerial,
    # SimSerialTCP and AnalyzePairsS1 sit inside their budgets here; seven more
    # canned logs below put the first back at one allocation per packet, at
    # one per packet record and at a packet pool of its own, the second back
    # at one closure per timer arm, at one boxed payload per segment and at
    # per-ACK logs on by default, and the third back at materialised paths.
    cat > "$self" <<'EOF'
cpu: Selftest CPU @ 2.10GHz
BenchmarkSnapshotInto-4                 5    1500000 ns/op  56000 B/op  854 allocs/op
BenchmarkForwardingStateSerial-4        5  160000000 ns/op  1000 B/op  10 allocs/op
BenchmarkForwardingStateIncremental-4   5   20000000 ns/op   500 B/op   5 allocs/op
BenchmarkSimSerial-4                    5   80000000 ns/op  170000 events/s  3000 B/op  30 allocs/op
BenchmarkSimSharded/shards=2-4          5  160000000 ns/op   85000 events/s  4000 B/op  40 allocs/op
BenchmarkSimSharded/shards=4-4          5  100000000 ns/op  136000 events/s  4000 B/op  40 allocs/op
BenchmarkSimSerialTCP-4                 5  650000000 ns/op  3200000 events/s  3000000 B/op  988 allocs/op
BenchmarkSimShardedTCP/shards=2-4       5  900000000 ns/op  2300000 events/s  28900000 B/op  148000 allocs/op
BenchmarkSimShardedTCP/shards=4-4       5  520000000 ns/op  4000000 events/s  30900000 B/op  148000 allocs/op
BenchmarkAnalyzePairsS1-4               5   56000000 ns/op  6000 B/op  57 allocs/op
EOF
    json="$(run_json "$self" 4)"
    rm -f "$self"
    for want in \
        '"gomaxprocs": 4' \
        '"cpu": "Selftest CPU @ 2.10GHz"' \
        '"BenchmarkSnapshotInto": {"ns_per_op": 1500000, "bytes_per_op": 56000, "allocs_per_op": 854, "alloc_budget": 8, "alloc_budget_status": "over"}' \
        '"BenchmarkForwardingStateSerial": {"ns_per_op": 160000000, "ns_per_instant": 20000000, "bytes_per_op": 1000, "allocs_per_op": 10}' \
        '"BenchmarkForwardingStateIncremental": {"ns_per_op": 20000000, "ns_per_instant": 2500000, "bytes_per_op": 500, "allocs_per_op": 5, "alloc_budget": 100, "alloc_budget_status": "ok"}' \
        '"BenchmarkSimSerial": {"ns_per_op": 80000000, "events_per_second": 170000, "bytes_per_op": 3000, "allocs_per_op": 30, "alloc_budget": 100, "alloc_budget_status": "ok"}' \
        '"BenchmarkSimSharded/shards=4": {"ns_per_op": 100000000, "events_per_second": 136000, "bytes_per_op": 4000, "allocs_per_op": 40}' \
        '"BenchmarkAnalyzePairsS1": {"ns_per_op": 56000000, "ns_per_step": 7000000, "bytes_per_op": 6000, "allocs_per_op": 57, "alloc_budget": 75, "alloc_budget_status": "ok"}' \
        '"serial_over_incremental": 8.000,' \
        '"BenchmarkSimSerialTCP": {"ns_per_op": 650000000, "events_per_second": 3200000, "bytes_per_op": 3000000, "allocs_per_op": 988, "alloc_budget": 1500, "alloc_budget_status": "ok"}' \
        '"BenchmarkSimShardedTCP/shards=4": {"ns_per_op": 520000000, "events_per_second": 4000000, "bytes_per_op": 30900000, "allocs_per_op": 148000}' \
        '"sharded_over_serial": 0.800,' \
        '"sharded_over_serial_note"' \
        '"sharded_over_serial_tcp": 1.250'; do
        if ! grep -qF "$want" <<<"$json"; then
            echo "bench.sh --selftest: missing $want in run JSON:" >&2
            printf '%s\n' "$json" >&2
            exit 1
        fi
    done
    # The canned SnapshotInto regression must fail budget_check, and a
    # budget-clean JSON must pass it.
    selfjson="$(mktemp)"
    printf '%s\n' "$json" > "$selfjson"
    if budget_check "$selfjson" 2>/dev/null; then
        echo "bench.sh --selftest: budget_check passed an over-budget benchmark" >&2
        rm -f "$selfjson"
        exit 1
    fi
    grep -v '"alloc_budget_status": "over"' "$selfjson" > "$selfjson.ok"
    if ! budget_check "$selfjson.ok"; then
        echo "bench.sh --selftest: budget_check failed a budget-clean JSON" >&2
        rm -f "$selfjson" "$selfjson.ok"
        exit 1
    fi
    rm -f "$selfjson" "$selfjson.ok"
    # expect_over renders one canned benchmark line on its own and requires
    # that it comes out marked over its budget and fails budget_check.
    expect_over() { # $1 = bench line, $2 = JSON fragment expected, $3 = what slipped through
        local log json
        log="$(mktemp)"
        json="$(mktemp)"
        printf 'cpu: Selftest CPU @ 2.10GHz\n%s\n' "$1" > "$log"
        run_json "$log" 4 > "$json"
        rm -f "$log"
        if ! grep -qF "$2" "$json" || budget_check "$json" 2>/dev/null; then
            echo "bench.sh --selftest: $3:" >&2
            cat "$json" >&2
            rm -f "$json"
            exit 1
        fi
        rm -f "$json"
    }
    # The packet path: SimSerial back at the 505 052 allocs/op it measured
    # with one Packet, one boxed payload and one method value per UDP packet.
    expect_over \
        'BenchmarkSimSerial-4                    5  841000000 ns/op  2400000 events/s  25000000 B/op  505052 allocs/op' \
        '"allocs_per_op": 505052, "alloc_budget": 100, "alloc_budget_status": "over"' \
        "an allocating packet path passed BenchmarkSimSerial's budget"
    # The packet records: SimSerial back at the 25 830 allocs/op it measured
    # with one new Packet per record up to the in-flight high-water and the
    # event slab regrown by append.
    expect_over \
        'BenchmarkSimSerial-4                    5  700000000 ns/op  2900000 events/s  10300000 B/op  25830 allocs/op' \
        '"allocs_per_op": 25830, "alloc_budget": 100, "alloc_budget_status": "over"' \
        "a new Packet per packet record passed BenchmarkSimSerial's budget"
    # The packet pool: SimSerial back at the 149 allocs/op it measured with
    # packets in pages of 256 of their own and a free list of them, beside
    # the event slab.
    expect_over \
        'BenchmarkSimSerial-4                    5  188000000 ns/op  5360000 events/s  4352168 B/op  149 allocs/op' \
        '"allocs_per_op": 149, "alloc_budget": 100, "alloc_budget_status": "over"' \
        "a packet pool beside the event slab passed BenchmarkSimSerial's budget"
    # TCP's timers: SimSerialTCP back at the 185 147 allocs/op it measured
    # with a fresh closure per retransmission- and delayed-ACK-timer arm.
    expect_over \
        'BenchmarkSimSerialTCP-4                 5  792000000 ns/op  2680000 events/s  32600000 B/op  185147 allocs/op' \
        '"allocs_per_op": 185147, "alloc_budget": 1500, "alloc_budget_status": "over"' \
        "a closure per timer arm passed BenchmarkSimSerialTCP's budget"
    # TCP's headers: SimSerialTCP back at the 145 872 allocs/op it measured
    # with a boxed segment in Payload per data segment and ACK.
    expect_over \
        'BenchmarkSimSerialTCP-4                 5  650000000 ns/op  3200000 events/s  25700000 B/op  145872 allocs/op' \
        '"allocs_per_op": 145872, "alloc_budget": 1500, "alloc_budget_status": "over"' \
        "a boxed payload per segment passed BenchmarkSimSerialTCP's budget"
    # TCP's logs: SimSerialTCP back at the 10 626 allocs/op it measured with
    # every flow appending to its CwndLog, RTTLog and AckedLog per ACK.
    expect_over \
        'BenchmarkSimSerialTCP-4                 5  650000000 ns/op  3200000 events/s  8000000 B/op  10626 allocs/op' \
        '"allocs_per_op": 10626, "alloc_budget": 1500, "alloc_budget_status": "over"' \
        "per-ACK logs on by default passed BenchmarkSimSerialTCP's budget"
    # The analysis sweep: 8 steps that each materialise 4 950 node paths and
    # satellite sequences, as the from-scratch sweep did (45 MB per virtual
    # second).
    expect_over \
        'BenchmarkAnalyzePairsS1-4               5  190000000 ns/op  36300000 B/op  410000 allocs/op' \
        '"ns_per_step": 23750000, "bytes_per_op": 36300000, "allocs_per_op": 410000, "alloc_budget": 75, "alloc_budget_status": "over"' \
        "a path-materialising sweep passed BenchmarkAnalyzePairsS1's budget"
    echo "bench.sh --selftest: ok"
    exit 0
fi

echo "== go test -bench (GOMAXPROCS=1; benchtime=$benchtime) =="
bench_once 1 "$raw1"
echo "== go test -bench (GOMAXPROCS=$wide; benchtime=$benchtime) =="
bench_once "$wide" "$rawN"

{
    printf '{\n'
    printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
    printf '  "nproc": %d,\n' "$nproc_val"
    printf '  "runs": [\n'
    run_json "$raw1" 1
    printf ',\n'
    run_json "$rawN" "$wide"
    printf '\n  ]\n'
    printf '}\n'
} > "$out"

echo "wrote $out"
budget_check "$out"

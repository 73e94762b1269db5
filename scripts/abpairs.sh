#!/usr/bin/env bash
# Interleaved A/B of one benchmark workload: the working tree against a parent
# commit, the way every perf claim in CHANGES.md is measured. The reference
# host's speed drifts by tens of percent within an hour, so only runs taken
# back to back compare; this alternates them and prints every pair.
#
#   scripts/abpairs.sh <workload> [pairs=10] [parent-ref=HEAD~1]
#
# The parent is exported with `git archive` into a temporary directory (nothing
# is left in .git), both ./bench binaries are built once, and each pair runs
# `-workload W -trace 0 -reps 3` on both, the parent first in odd pairs and the
# change first in even ones, on seed 20201027 for pairs 1-2, 5-6, ... and the
# held-out seed 7 for pairs 3-4, 7-8, .... Per pair it prints the five
# end-to-end medians of both sides and the per-repetition alloc_mb_per_vsec
# samples — the line that shows an allocation that depends on scheduling, which
# a median hides — and at the end, per metric, in how many pairs the change
# read lower, the median change/parent ratio, each side's median and
# quartiles over the pairs, and whether a claim that the change lowers the
# metric holds: lower in at least 9 of 10 pairs, and the medians further
# apart than the parent's interquartile range. Digests must match the
# recorded ones on both sides or the script stops.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/abpairs.sh <workload> [pairs=10] [parent-ref=HEAD~1]}
pairs=${2:-10}
parent=${3:-HEAD~1}
metrics=(slowdown cpu_s_per_vsec alloc_mb_per_vsec peak_rss_mb setup_s)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent" | tar -x -C "$tmp/parent"
(cd "$tmp/parent" && go build -o "$tmp/bench_parent" ./bench)
go build -o "$tmp/bench_change" ./bench
echo "workload $workload: parent $(git rev-parse --short "$parent") vs working tree, $pairs pairs"

# field <report.json> <metric> <key>: a scalar of one end-to-end metric.
field() {
    awk -v m="\"$2\": {" -v k="\"$3\":" '
        index($0, m) { inside = 1 }
        inside && index($0, k) { gsub(/[ ,]/, "", $2); printf "%.6g\n", $2; exit }' "$1"
}

# samples <report.json> <metric>: the metric's per-repetition samples.
samples() {
    awk -v m="\"$2\": {" '
        index($0, m) { inside = 1 }
        inside && /"samples": \[/ { on = 1; next }
        on && /\]/ { exit }
        on { gsub(/[ ,]/, ""); printf "%.6g ", $0 }' "$1"
}

run() { # run <side> <seed> -> $tmp/<side>.json
    if ! "$tmp/bench_$1" -workload "$workload" -seed "$2" -trace 0 -reps 3 -out "$tmp/$1.json" >"$tmp/$1.log" 2>&1; then
        cat "$tmp/$1.log" >&2
        echo "abpairs: $1 run failed" >&2
        exit 1
    fi
    if ! grep -q '(recorded: match)' "$tmp/$1.log"; then
        grep 'digest=' "$tmp/$1.log" >&2 || true
        echo "abpairs: $1 digest does not match the recorded one" >&2
        exit 1
    fi
}

for ((i = 1; i <= pairs; i++)); do
    seed=20201027
    (((i - 1) / 2 % 2 == 1)) && seed=7
    if ((i % 2 == 1)); then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
    line="pair $i seed $seed:"
    for m in "${metrics[@]}"; do
        p=$(field "$tmp/parent.json" "$m" value)
        c=$(field "$tmp/change.json" "$m" value)
        line+=" $m $p -> $c;"
        echo "$m $p $c" >>"$tmp/pairs.txt"
    done
    echo "$line"
    echo "    alloc_mb_per_vsec per repetition: parent $(samples "$tmp/parent.json" alloc_mb_per_vsec)| change $(samples "$tmp/change.json" alloc_mb_per_vsec)"
done

echo "== per metric over $pairs pairs: change lower in, median change:parent ratio; median [Q1, Q3] of each side; the claim rule =="
for m in "${metrics[@]}"; do
    awk -v m="$m" '
        # sorted copy of a[1..n] into s, by insertion
        function sortinto(a, s, n,    i, j, t) {
            for (i = 1; i <= n; i++) s[i] = a[i]
            for (i = 2; i <= n; i++) for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
        }
        # q-quantile of sorted s[1..n], interpolating between order statistics
        function quantile(s, n, q,    h, lo) {
            h = 1 + (n - 1) * q
            lo = int(h)
            return (lo >= n) ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
        }
        $1 == m { n++; p[n] = $2; c[n] = $3; if ($3 < $2) wins++; r[n] = ($2 > 0) ? $3 / $2 : 1 }
        END {
            sortinto(r, rs, n); sortinto(p, ps, n); sortinto(c, cs, n)
            pm = quantile(ps, n, 0.5); p1 = quantile(ps, n, 0.25); p3 = quantile(ps, n, 0.75)
            cm = quantile(cs, n, 0.5); c1 = quantile(cs, n, 0.25); c3 = quantile(cs, n, 0.75)
            iqr = p3 - p1
            holds = (wins * 10 >= 9 * n && pm - cm > iqr) ? "holds" : "fails"
            printf "  %-20s %d/%d  %.3fx  parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  parent IQR %.6g, medians %.6g apart: lower-claim %s\n", \
                m, wins, n, quantile(rs, n, 0.5), pm, p1, p3, cm, c1, c3, iqr, pm - cm, holds
        }' "$tmp/pairs.txt"
done

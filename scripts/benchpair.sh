#!/usr/bin/env bash
# Paired comparison of the end-to-end benchmark between a reference commit
# and the working tree, the way the metrics guide asks for a performance
# claim to be measured on a small shared host:
#
#   scripts/benchpair.sh REF [N=10] [workload…]        # make bench-pair REF=…
#   SEED=20260925 scripts/benchpair.sh HEAD~1 10 steady_churn
#
# It unpacks REF's committed files under .bench_build/pair/<sha>/ and runs
# N pairs of BENCHMARK.json's own command (`bash bench/run.sh --workload W
# --seed S --seconds <run_seconds> --trace 0`) per workload, one run in
# that checkout and one in the working tree, alternating which side goes
# first so that host drift hits both alike. Per (workload, end-to-end
# metric) it prints both medians and quartiles, the pairs the change won
# and lost, and a verdict:
#
#   improved      the change wins at least nine tenths of all pairs (ties
#                 count for neither) and the medians differ, the right way,
#                 by more than the distance between the parent's quartiles
#   worse         the change's median is worse than the parent's by more
#                 than the metric's bound
#   unresolved    neither, and either side's quartile spread is wider than
#                 the bound — unless every run of the change reads better
#                 than every run of the parent
#   within bound  otherwise
#
# Workloads, metric names, directions, bounds and the run length are READ
# from BENCHMARK.json; the script writes nothing there and touches no file
# under bench/. Everything it leaves behind — the unpacked reference, both
# build caches, every run's values (runs-*.tsv, one line per run and
# metric) — stays under the git-ignored .bench_build/. Needs jq.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [ $# -lt 1 ]; then
    echo "usage: $0 REF [N=10] [workload…]   (env SEED, default 1)" >&2
    exit 2
fi
command -v jq >/dev/null || { echo "$0: needs jq" >&2; exit 2; }

ref="$(git rev-parse --verify --quiet "$1^{commit}")" || { echo "$0: unknown commit $1" >&2; exit 2; }
pairs="${2:-10}"
shift $(( $# < 2 ? $# : 2 ))
seed="${SEED:-1}"
seconds="$(jq -r '.run_seconds' BENCHMARK.json)"
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
fi

parent="$root/.bench_build/pair/$ref"
if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git archive "$ref" | tar -x -C "$parent"
fi
runs="$root/.bench_build/pair/runs-${ref:0:12}-seed$seed-$(date +%Y%m%dT%H%M%S).tsv"
: > "$runs"

# run_side SIDE DIR WORKLOAD PAIR: one benchmark run; appends
# "workload pair side metric value" lines plus the failed-op share.
run_side() {
    local side="$1" dir="$2" w="$3" pair="$4" line
    line="$(cd "$dir" && bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
    if [ "$(jq -r '.correct' <<<"$line")" != "true" ]; then
        echo "$0: $side run of $w (pair $pair) failed its correctness gate: $line" >&2
        exit 1
    fi
    jq -r --arg w "$w" --arg p "$pair" --arg s "$side" '
        (.metrics | to_entries[] | [$w, $p, $s, .key, .value.value]),
        [$w, $p, $s, "failed_share", (if .attempted > 0 then .failed / .attempted else 0 end)]
        | @tsv' <<<"$line" >> "$runs"
}

for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        echo "# $w seed $seed: pair $i of $pairs" >&2
        if ((i % 2)); then
            run_side parent "$parent" "$w" "$i"
            run_side change "$root" "$w" "$i"
        else
            run_side change "$root" "$w" "$i"
            run_side parent "$parent" "$w" "$i"
        fi
    done
done

echo "# parent ${ref:0:12} vs working tree, seed $seed, $pairs pairs, $seconds s runs; every run: ${runs#"$root"/}"
jq -r '.end_to_end[] | [.name, .better, .bound] | @tsv' BENCHMARK.json |
awk -F'\t' -v workloads="${workloads[*]}" '
function sorted(src, n, dst,    i, j, v) {
    for (i = 1; i <= n; i++) dst[i] = src[i]
    for (i = 2; i <= n; i++) {
        v = dst[i]
        for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
        dst[j + 1] = v
    }
}
function median(s, n) { return n % 2 ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2 }
# Quartile k of 4 as statistics.quantiles(values, n=4) gives it — the
# definition bench/ itself reports.
function quartile(s, n, k,    j, delta) {
    if (n < 2) return s[1]
    j = int(k * (n + 1) / 4)
    if (j < 1) j = 1
    if (j > n - 1) j = n - 1
    delta = k * (n + 1) - j * 4
    return (s[j] * (4 - delta) + s[j + 1] * delta) / 4
}
FNR == NR { order[++metrics] = $1; better[$1] = $2; bound[$1] = $3; next }
{ val[$1, $4, $3, $2] = $5; if ($2 + 0 > npairs[$1]) npairs[$1] = $2 + 0 }
END {
    nw = split(workloads, ws, " ")
    for (wi = 1; wi <= nw; wi++) {
        w = ws[wi]; n = npairs[w]
        printf "\n%s\n%-18s %6s %6s  %34s  %34s  %8s  %9s  %s\n", w, "metric", "better", "bound",
            "parent median [q1, q3]", "change median [q1, q3]", "change", "won : lost", "verdict"
        for (mi = 1; mi <= metrics; mi++) {
            m = order[mi]; sign = better[m] == "lower" ? -1 : 1
            won = lost = 0
            for (i = 1; i <= n; i++) {
                p[i] = val[w, m, "parent", i]; c[i] = val[w, m, "change", i]
                d = sign * (c[i] - p[i])
                if (d > 0) won++; else if (d < 0) lost++
            }
            sorted(p, n, ps); sorted(c, n, cs)
            pm = median(ps, n); pq1 = quartile(ps, n, 1); pq3 = quartile(ps, n, 3)
            cm = median(cs, n); cq1 = quartile(cs, n, 1); cq3 = quartile(cs, n, 3)
            gain = sign * (cm - pm)                       # > 0: the change is better
            disjoint = sign > 0 ? cs[1] > ps[n] : cs[n] < ps[1]
            wide = pm != 0 && cm != 0 && ((pq3 - pq1) / pm > bound[m] || (cq3 - cq1) / cm > bound[m])
            if (won * 10 >= n * 9 && gain > pq3 - pq1) verdict = "improved"
            else if (-gain > bound[m] * pm) verdict = "worse"
            else if (wide && !disjoint) verdict = "unresolved"
            else verdict = "within bound"
            printf "%-18s %6s %5.0f%%  %12.4f [%9.4f,%9.4f]  %12.4f [%9.4f,%9.4f]  %+7.1f%%  %4d : %-4d  %s\n",
                m, better[m], 100 * bound[m], pm, pq1, pq3, cm, cq1, cq3,
                pm != 0 ? 100 * (cm - pm) / pm : 0, won, lost, verdict
        }
        pf = cf = 0
        for (i = 1; i <= n; i++) { pf += val[w, "failed_share", "parent", i]; cf += val[w, "failed_share", "change", i] }
        note = (cf > pf) ? "  LARGER SHARE FAILS: no gain counts" : ""
        printf "%-18s parent %.4f, change %.4f (mean share of ops failed)%s\n", "failed ops", pf / n, cf / n, note
    }
}' - "$runs"

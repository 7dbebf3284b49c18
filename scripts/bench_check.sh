#!/usr/bin/env bash
# Bench regression gate: runs the Criterion suite with BENCH_JSON output
# and fails if any benchmark is more than MAX_RATIO times slower than the
# committed baseline in bench-results/.
#
#   usage: scripts/bench_check.sh [max_ratio]
#
# The committed BENCH_*.json files are flat arrays of
#   {"bench": "<id>", "ns_per_iter": <int>, "iters": <int>}
# (one file per bench executable, written by the vendored criterion
# shim). Benchmarks present only on one side are reported but do not
# fail the gate — new benches need a baseline refresh, which is exactly
# the signal we want in CI output. A current row that reads 0 ns/iter
# fails the gate: it times nothing.
#
# Regenerate baselines (same machine you compare on!) with:
#   BENCH_JSON=$PWD/bench-results cargo bench

set -euo pipefail
cd "$(dirname "$0")/.."

MAX_RATIO="${1:-1.5}"
BASELINE_DIR="bench-results"
RUN_DIR="$(mktemp -d)"
trap 'rm -rf "$RUN_DIR"' EXIT

if [ ! -d "$BASELINE_DIR" ] || ! ls "$BASELINE_DIR"/BENCH_*.json >/dev/null 2>&1; then
    echo "bench_check: no committed baselines in $BASELINE_DIR/ — nothing to gate" >&2
    exit 1
fi

echo "bench_check: running suite (baselines -> $RUN_DIR)"
BENCH_JSON="$RUN_DIR" cargo bench --quiet

# Flatten "bench<TAB>ns" pairs out of the shim's one-entry-per-line JSON.
extract() {
    sed -n 's/.*"bench": "\([^"]*\)", "ns_per_iter": \([0-9]*\).*/\1\t\2/p' "$@"
}

extract "$BASELINE_DIR"/BENCH_*.json | sort >"$RUN_DIR/baseline.tsv"
extract "$RUN_DIR"/BENCH_*.json | sort >"$RUN_DIR/current.tsv"

# Hot-path benches the suite must always carry: losing one (renamed
# bench, dropped group registration) silently removes its regression
# coverage, so their absence from the current run is a hard failure.
REQUIRED_BENCHES="
sim_churn_1k_calls
sim_churn_1k_calls_traced
sim_churn_1k_calls_faulty
sim_churn_100k_calls
sim_churn_100k_calls_faulty
reroute_storm
reroute_storm_mincost
reroute_storm_mincost_ftn_nu2
event_queue_storm_replay
trace_render_storm
router_connect_pair_ftn_nu2
router_connect_pair_ftn_nu2_half_busy
router_connect_pair_ftn_paper_nu1
bfs_forward_ftn_nu2_reused
sliced_reach_pairs_benes10
sliced_reach_pairs_ftn_nu2
dinic_repair_nu2
mc_bridge_10k_sliced
sample_sliced_1M_edges/eps0.001
sample_sliced_1M_edges/eps0.2
pair_blocking_ftn_nu2
serve_connects_per_sec
serve_engine_fault_repair_paper_nu1
build_ftn/nu2
build_ftn/paper_nu1
csr_in_lists/ftn_nu2
"
for b in $REQUIRED_BENCHES; do
    if ! cut -f1 "$RUN_DIR/current.tsv" | grep -qx "$b"; then
        echo "bench_check: required bench '$b' missing from the run" >&2
        exit 1
    fi
done

# A row that reads 0 ns/iter times nothing: the optimiser folded its
# body away, so no regression can ever show there. That is a hard
# failure, like a missing required bench.
ZERO_ROWS="$(awk -F '\t' '$2 == 0 { print $1 }' "$RUN_DIR/current.tsv")"
if [ -n "$ZERO_ROWS" ]; then
    echo "$ZERO_ROWS" | sed 's/^/  times nothing (0 ns\/iter): /' >&2
    echo "bench_check: benchmark(s) above read 0 ns/iter" >&2
    exit 1
fi

# Surface (but do not fail on) benches missing from either side — print
# this BEFORE the gate so the diagnostic survives a failing exit below.
comm -23 <(cut -f1 "$RUN_DIR/baseline.tsv") <(cut -f1 "$RUN_DIR/current.tsv") |
    sed 's/^/  baseline-only: /'
comm -13 <(cut -f1 "$RUN_DIR/baseline.tsv") <(cut -f1 "$RUN_DIR/current.tsv") |
    sed 's/^/  new (no baseline): /'

join -t "$(printf '\t')" "$RUN_DIR/baseline.tsv" "$RUN_DIR/current.tsv" |
    awk -F '\t' -v max="$MAX_RATIO" '
    {
        ratio = ($2 > 0) ? $3 / $2 : 1
        status = (ratio > max) ? "REGRESSION" : "ok"
        printf "  %-45s %12d -> %12d ns/iter  (%.2fx) %s\n", $1, $2, $3, ratio, status
        if (ratio > max) bad++
    }
    END {
        if (bad > 0) {
            printf "bench_check: %d benchmark(s) regressed beyond %.2fx\n", bad, max
            exit 1
        }
        print "bench_check: all benchmarks within " max "x of baseline"
    }'

#!/usr/bin/env bash
# The repo benchmark. Builds the benchmark package (offline, release,
# the root profile) and runs it.
#
#   benchmark/run.sh                      every workload once, each in a fresh
#                                         process; prints every end-to-end metric
#   benchmark/run.sh --ladder             the traced set: per-layer metrics,
#                                         spans in benchmark/out/
#   benchmark/run.sh --check              two sets back to back; fails unless the
#                                         second is within every bound of the first
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one workload in this process; the result
#                                         line is the last line of stdout
#
# Flags combine: --seed and --seconds apply to the set forms as well.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
target=${CARGO_TARGET_DIR:-$here/target}

# The traced run is a binary of its own: it counts allocations, and the
# end-to-end numbers must come from the allocator the shipped binaries use.
bin=ftbench
previous=
for arg in "$@"; do
    if [ "$arg" = --ladder ] || { [ "$previous" = --trace ] && [ "$arg" = 1 ]; }; then
        bin=ftbench-ladder
    fi
    previous=$arg
done

export FTBENCH_OUT="$here/out"
exec "$target/release/$bin" "$@"

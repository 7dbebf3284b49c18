#!/usr/bin/env bash
# End-to-end robustness smoke for ftserve (run in CI):
#
#   1. storm replay at 8x wall speed against a live server, with a
#      pipelined flood (forces admission shedding), a mid-run graceful
#      topology reload, and fault/repair injection from the stream —
#      the report must show nonzero shed AND nonzero recovery episodes;
#   2. graceful shutdown must exit 0 on both sides;
#   3. two --deterministic lockstep runs must produce byte-identical
#      final reports that parse as JSON;
#   4. kill -9 mid-run, then restart on the same --snapshot file: the
#      revived server must report restored=true with counters at least
#      as large as the snapshot it inherited.
#
#   usage: scripts/server_smoke.sh [scenario]

set -euo pipefail
cd "$(dirname "$0")/.."

SCENARIO="${1:-scenarios/storm_smoke.ftsim}"
WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

FTSERVE=target/release/ftserve
REPLAY=target/release/ftserve-replay
cargo build --release -p ft-serve --quiet

wait_for_port_file() {
    for _ in $(seq 1 100); do
        [ -s "$1" ] && return 0
        sleep 0.1
    done
    echo "server_smoke: server never wrote $1" >&2
    return 1
}

counter() { # counter FILE NAME -> value
    sed -n "s/^ *\"$2\": \([0-9][0-9]*\),*$/\1/p" "$1"
}

echo "== 1/4: storm replay at 8x with flood + mid-run reload =="
"$FTSERVE" "$SCENARIO" --port-file "$WORK/port" --queue-depth 8 \
    --snapshot "$WORK/storm.snap" --report "$WORK/storm.json" \
    >"$WORK/storm.stdout" 2>"$WORK/storm.stderr" &
SERVER_PID=$!
wait_for_port_file "$WORK/port"
"$REPLAY" "$(cat "$WORK/port")" "$SCENARIO" --speed 8 --flood 400 \
    --reload-at 60 --reload-spec "clos-strict 4 4" \
    --snapshot-at-end --shutdown 2>&1 | sed 's/^/  /'
wait "$SERVER_PID"
SERVER_PID=""
SHED="$(counter "$WORK/storm.json" shed)"
RECOVERED="$(counter "$WORK/storm.json" recovery_episodes)"
RELOADS="$(counter "$WORK/storm.json" reloads)"
echo "  shed=$SHED recovery_episodes=$RECOVERED reloads=$RELOADS"
[ "${SHED:-0}" -gt 0 ] || { echo "server_smoke: expected nonzero shed" >&2; exit 1; }
[ "${RECOVERED:-0}" -gt 0 ] || { echo "server_smoke: expected nonzero recovery episodes" >&2; exit 1; }
[ "${RELOADS:-0}" -gt 0 ] || { echo "server_smoke: expected a reload" >&2; exit 1; }

echo "== 2/4: graceful shutdown exit codes were 0 (set -e saw them) =="

echo "== 3/4: deterministic-mode byte identity =="
for run in a b; do
    "$FTSERVE" "$SCENARIO" --deterministic --port-file "$WORK/port_$run" \
        >"$WORK/det_$run.json" 2>/dev/null &
    SERVER_PID=$!
    wait_for_port_file "$WORK/port_$run"
    "$REPLAY" "$(cat "$WORK/port_$run")" "$SCENARIO" --deterministic --shutdown 2>/dev/null
    wait "$SERVER_PID"
    SERVER_PID=""
done
cmp "$WORK/det_a.json" "$WORK/det_b.json" || {
    echo "server_smoke: deterministic reports differ" >&2
    diff "$WORK/det_a.json" "$WORK/det_b.json" >&2 || true
    exit 1
}
python3 -m json.tool "$WORK/det_a.json" >/dev/null || {
    echo "server_smoke: deterministic report is not valid JSON" >&2
    exit 1
}
echo "  byte-identical across two runs, valid JSON"

echo "== 4/4: kill -9, snapshot restart =="
"$FTSERVE" "$SCENARIO" --port-file "$WORK/port9" --snapshot "$WORK/kill.snap" \
    --snapshot-every 8 >/dev/null 2>&1 &
SERVER_PID=$!
wait_for_port_file "$WORK/port9"
# Feed it some traffic (no shutdown), then murder it mid-service.
"$REPLAY" "$(cat "$WORK/port9")" "$SCENARIO" --speed 50 2>/dev/null
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
[ -s "$WORK/kill.snap" ] || { echo "server_smoke: no snapshot survived kill -9" >&2; exit 1; }
SNAP_OFFERED="$(sed -n 's/^offered \([0-9]*\)$/\1/p' "$WORK/kill.snap")"
# Restart on the same snapshot; it must restore and keep counting.
"$FTSERVE" "$SCENARIO" --port-file "$WORK/port10" --snapshot "$WORK/kill.snap" \
    --report "$WORK/revived.json" >/dev/null 2>"$WORK/revived.stderr" &
SERVER_PID=$!
wait_for_port_file "$WORK/port10"
"$REPLAY" "$(cat "$WORK/port10")" "$SCENARIO" --speed 50 --shutdown 2>/dev/null
wait "$SERVER_PID"
SERVER_PID=""
grep -F "restored counters from snapshot" "$WORK/revived.stderr" >/dev/null || {
    echo "server_smoke: revived server did not restore the snapshot" >&2
    cat "$WORK/revived.stderr" >&2
    exit 1
}
grep -F '"restored": true' "$WORK/revived.json" >/dev/null || {
    echo "server_smoke: revived report lacks restored=true" >&2
    exit 1
}
REVIVED_OFFERED="$(counter "$WORK/revived.json" offered)"
echo "  snapshot offered=$SNAP_OFFERED, revived offered=$REVIVED_OFFERED"
[ "${REVIVED_OFFERED:-0}" -gt "${SNAP_OFFERED:-0}" ] || {
    echo "server_smoke: revived counters did not continue past the snapshot" >&2
    exit 1
}

echo "server_smoke: all checks passed"

#!/usr/bin/env bash
# Chaos drill for the clustered detection service (docs/SERVICE.md),
# run by the CI cluster job with goldilocksd built under the Go race
# detector:
#
#  1. a 3-node fleet is started with checkpoint replication (K=2) and a
#     fast failure detector;
#  2. goldilocksctl drill streams half of every seed-corpus trace into
#     failover-aware fleet sessions, SIGKILLs one node mid-corpus,
#     finishes streaming through client failover, and requires every
#     session to converge to exactly the executable specification's
#     verdicts and Figure 5 rule fires — zero divergences, zero
#     caller-visible errors, at least one real failover;
#  3. the surviving fleet's status and the /cluster/metrics rollup are
#     sanity-checked.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR1=127.0.0.1:7981
ADDR2=127.0.0.1:7982
ADDR3=127.0.0.1:7983
METRICS1=127.0.0.1:7984
CLUSTER="$ADDR1,$ADDR2,$ADDR3"
WORK="$(mktemp -d)"
BIN="$WORK/bin"
declare -a PIDS=()

# Per-step timeout guard: a hung node or ctl call fails the job in
# bounded time.
STEP_TIMEOUT="${STEP_TIMEOUT:-120}"
T() { timeout "$STEP_TIMEOUT" "$@"; }

cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill -KILL "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build (daemons under -race)"
go build -race -o "$BIN/goldilocksd" ./cmd/goldilocksd
go build -o "$BIN/goldilocksctl" ./cmd/goldilocksctl

start_node() {
    n="$1"; addr="$2"; shift 2
    # Every record traced and a per-node flight dir: after the SIGKILL
    # drill each survivor's flight recorder is collected and must show
    # the failover promotions it performed. Checkpoint every action:
    # the corpus traces are 3-16 events and only half streams before
    # the kill, so anything coarser leaves the victim's sessions with
    # no replicas to promote.
    "$BIN/goldilocksd" -addr "$addr" \
        -cluster "$CLUSTER" -join "$addr" -replicas 2 \
        -checkpoint-dir "$WORK/ckpt$n" -checkpoint-every 1 \
        -probe-interval 100ms -probe-timeout 500ms -suspect-after 2 \
        -trace-sample 1 -flight-dir "$WORK/flight$n" \
        "$@" >>"$WORK/node$n.log" 2>&1 &
    PIDS+=($!)
    disown $! # the drill SIGKILLs nodes; keep bash's job reaper quiet
}

echo "== start 3-node fleet"
start_node 1 "$ADDR1" -metrics-addr "$METRICS1"
start_node 2 "$ADDR2"
start_node 3 "$ADDR3"

for i in $(seq 1 50); do
    up="$(T "$BIN/goldilocksctl" -cluster "$CLUSTER" status 2>/dev/null | awk '$2 == "up"' | wc -l)"
    [ "$up" -eq 3 ] && break
    [ "$i" -eq 50 ] && { echo "FAIL: fleet did not become ready"; cat "$WORK"/node*.log; exit 1; }
    sleep 0.2
done
echo "   all 3 nodes up"

echo "== chaos drill: SIGKILL $ADDR2 (pid ${PIDS[1]}) mid-corpus"
T "$BIN/goldilocksctl" -cluster "$CLUSTER" drill \
    -kill-pid "${PIDS[1]}" -kill-addr "$ADDR2" \
    -corpus internal/conformance/testdata | tee "$WORK/drill.txt"
grep -q " 0 divergences" "$WORK/drill.txt" || {
    echo "FAIL: drill reported divergences"; cat "$WORK"/node*.log; exit 1; }

echo "== surviving fleet status"
T "$BIN/goldilocksctl" -cluster "$CLUSTER" status | tee "$WORK/status.txt"
[ "$(awk '$2 == "up"' "$WORK/status.txt" | wc -l)" -eq 2 ] || {
    echo "FAIL: expected 2 surviving nodes"; exit 1; }
grep -q "$ADDR2 .*DOWN" "$WORK/status.txt" || {
    echo "FAIL: victim $ADDR2 not reported DOWN"; exit 1; }

echo "== cluster metrics rollup"
T curl -sf "http://$METRICS1/cluster/metrics" -o "$WORK/rollup.prom"
grep -q 'goldilocksd_cluster_nodes 3' "$WORK/rollup.prom" || {
    echo "FAIL: rollup missing fleet size"; cat "$WORK/rollup.prom"; exit 1; }
grep -q 'goldilocksd_cluster_nodes_up 2' "$WORK/rollup.prom" || {
    echo "FAIL: rollup does not show 2 nodes up"; cat "$WORK/rollup.prom"; exit 1; }
grep -q "goldilocksd_sessions_total{node=\"$ADDR1\"}" "$WORK/rollup.prom" || {
    echo "FAIL: rollup missing per-node samples"; cat "$WORK/rollup.prom"; exit 1; }

# The ctl rollup must agree with the HTTP endpoint.
T "$BIN/goldilocksctl" -cluster "$CLUSTER" metrics | grep -q 'goldilocksd_cluster_nodes_up 2' || {
    echo "FAIL: goldilocksctl metrics rollup disagrees"; exit 1; }

echo "== collect survivors' flight recorders"
T "$BIN/goldilocksctl" -cluster "$CLUSTER" flight -out "$WORK/flightdumps" \
    -reason post-drill | tee "$WORK/flight.txt"
dumps="$(ls "$WORK/flightdumps"/*.flight.jsonl 2>/dev/null | wc -l)"
[ "$dumps" -eq 2 ] || {
    echo "FAIL: collected $dumps flight dumps from 2 survivors"; exit 1; }
promotions=0
for dump in "$WORK/flightdumps"/*.flight.jsonl; do
    head -1 "$dump" | grep -q '"format":"goldilocks-flight"' || {
        echo "FAIL: $dump has a bad header"; head -1 "$dump"; exit 1; }
    n="$(grep -c '"k":"promote"' "$dump" || true)"
    echo "   $(basename "$dump"): $(wc -l <"$dump") lines, $n promotions"
    promotions=$((promotions + n))
done
# The SIGKILLed node owned sessions; their replicas were promoted on
# the survivors, and the recorders must have witnessed that.
[ "$promotions" -ge 1 ] || {
    echo "FAIL: no failover promotions in any survivor's flight dump"
    cat "$WORK/flightdumps"/*.flight.jsonl; exit 1; }

echo "PASS: cluster drill"

#!/usr/bin/env bash
# End-to-end drill for the detection service (docs/SERVICE.md), run by
# the CI service job with goldilocksd built under the Go race detector:
#
#  1. verdict parity: every seed-corpus trace and two recorded MJ
#     traces replay through a live daemon with the same race count and
#     exit code as the in-process detector;
#  2. durability: a session is interrupted mid-trace, the daemon is
#     SIGTERMed (checkpoints written), restarted, and the resumed
#     session converges on the uninterrupted verdicts;
#  3. the per-session metrics are scraped and sanity-checked.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=127.0.0.1:7991
METRICS=127.0.0.1:7992
WORK="$(mktemp -d)"
BIN="$WORK/bin"
CKPT="$WORK/ckpt"
DAEMON_PID=""

# Per-step timeout guard: a hung daemon or client must fail the job in
# bounded time, not eat the CI timeout. Usage: T <cmd...>
STEP_TIMEOUT="${STEP_TIMEOUT:-120}"
T() { timeout "$STEP_TIMEOUT" "$@"; }

cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

start_daemon() {
    # -trace-sample 1 traces every record so the short smoke run still
    # fills every stage histogram; the flight recorder dumps to a fixed
    # dir so the SIGTERM drill's shutdown dump can be asserted on.
    "$BIN/goldilocksd" -addr "$ADDR" -metrics-addr "$METRICS" \
        -checkpoint-dir "$CKPT" -trace-sample 1 -flight-dir "$WORK/flight" \
        >>"$WORK/daemon.log" 2>&1 &
    DAEMON_PID=$!
    for _ in $(seq 1 50); do
        curl -sf "http://$METRICS/metrics" -o /dev/null && return 0
        sleep 0.2
    done
    echo "FAIL: daemon did not become ready"; cat "$WORK/daemon.log"; exit 1
}

stop_daemon() {
    kill -TERM "$DAEMON_PID"
    # Bounded wait: a daemon that hangs in shutdown is a bug, not a
    # reason for the job to hang with it.
    for _ in $(seq 1 "$STEP_TIMEOUT"); do
        kill -0 "$DAEMON_PID" 2>/dev/null || break
        sleep 1
    done
    if kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -KILL "$DAEMON_PID" 2>/dev/null || true
        echo "FAIL: daemon did not shut down within ${STEP_TIMEOUT}s"; cat "$WORK/daemon.log"; exit 1
    fi
    rc=0
    wait "$DAEMON_PID" || rc=$?
    DAEMON_PID=""
    if [ $rc -ne 0 ]; then
        echo "FAIL: daemon shutdown exit code $rc"; cat "$WORK/daemon.log"; exit 1
    fi
}

# race_count FILE LABEL: extract "LABEL: N races" from a replay report.
race_count() {
    sed -n "s/^$2: \\([0-9][0-9]*\\) races\$/\\1/p" "$1"
}

echo "== build (daemon under -race)"
go build -race -o "$BIN/goldilocksd" ./cmd/goldilocksd
go build -o "$BIN/goldilocks" ./cmd/goldilocks
go build -o "$BIN/racereplay" ./cmd/racereplay

echo "== record MJ scenario traces"
T "$BIN/goldilocks" -sched det -seed 4 -policy log -record "$WORK/racy.jsonl" examples/mj/racy.mj >/dev/null || [ $? -eq 1 ]
T "$BIN/goldilocks" -sched det -seed 1 -policy log -record "$WORK/txbank.jsonl" examples/mj/txbank.mj >/dev/null || [ $? -eq 1 ]
T "$BIN/goldilocks" -sched det -seed 1 -policy log -record "$WORK/pipeline.jsonl" examples/mj/pipeline.mj >/dev/null || [ $? -eq 1 ]
grep -q '"kind":"send"' "$WORK/pipeline.jsonl" || {
    echo "FAIL: pipeline recording carries no channel events"; exit 1; }

start_daemon

echo "== verdict parity: daemon vs in-process, exit codes included"
for trace in internal/conformance/testdata/ce-*.jsonl "$WORK"/racy.jsonl "$WORK"/txbank.jsonl "$WORK"/pipeline.jsonl; do
    name="$(basename "$trace" .jsonl)"

    set +e
    T "$BIN/racereplay" -detector goldilocks "$trace" >"$WORK/local.txt" 2>&1
    local_rc=$?
    T "$BIN/racereplay" -remote "$ADDR" -session "parity-$name" "$trace" >"$WORK/remote.txt" 2>&1
    remote_rc=$?
    set -e

    local_n="$(race_count "$WORK/local.txt" goldilocks)"
    remote_n="$(race_count "$WORK/remote.txt" remote)"
    if [ "$local_rc" != "$remote_rc" ] || [ "$local_n" != "$remote_n" ]; then
        echo "FAIL: $name: local exit=$local_rc races=$local_n, remote exit=$remote_rc races=$remote_n"
        cat "$WORK/local.txt" "$WORK/remote.txt"
        exit 1
    fi
    echo "   $name: $local_n races, exit $local_rc (local == remote)"
done

# drill NAME TRACE: stream half the trace into session NAME, SIGTERM
# the daemon (checkpoints written), restart it, resume the session to
# completion, and require convergence with the uninterrupted verdicts.
drill() {
    name="$1"; drill_trace="$2"
    T "$BIN/racereplay" -detector goldilocks "$drill_trace" >"$WORK/drill-local.txt" 2>&1 || true
    total_actions="$(sed -n 's/^trace: \([0-9][0-9]*\) actions.*/\1/p' "$WORK/drill-local.txt")"
    want_n="$(race_count "$WORK/drill-local.txt" goldilocks)"
    half=$((total_actions / 2))
    [ "$half" -ge 1 ] || { echo "FAIL: $name: drill trace too short ($total_actions actions)"; exit 1; }

    T "$BIN/racereplay" -remote "$ADDR" -session "$name" -stop-after "$half" "$drill_trace" \
        >"$WORK/drill-partial.txt" 2>&1 || true
    grep -q "session $name resumable" "$WORK/drill-partial.txt" || {
        echo "FAIL: $name: partial replay did not detach resumably"; cat "$WORK/drill-partial.txt"; exit 1; }
    partial_n="$(sed -n 's/^detached at action [0-9]* (\([0-9][0-9]*\) races so far).*/\1/p' "$WORK/drill-partial.txt")"

    stop_daemon
    ls "$CKPT"/*.ckpt >/dev/null || { echo "FAIL: $name: no checkpoint files written"; exit 1; }
    echo "   daemon checkpointed $(ls "$CKPT"/*.ckpt | wc -l) sessions and exited cleanly"

    start_daemon
    set +e
    T "$BIN/racereplay" -remote "$ADDR" -session "$name" "$drill_trace" >"$WORK/drill-resume.txt" 2>&1
    set -e
    grep -q "session $name resumed at action $half" "$WORK/drill-resume.txt" || {
        echo "FAIL: $name: session did not resume at action $half"; cat "$WORK/drill-resume.txt"; exit 1; }
    resume_n="$(race_count "$WORK/drill-resume.txt" remote)"
    if [ $((partial_n + resume_n)) -ne "$want_n" ]; then
        echo "FAIL: $name: drill races: partial $partial_n + resumed $resume_n != uninterrupted $want_n"
        cat "$WORK/drill-partial.txt" "$WORK/drill-resume.txt" "$WORK/drill-local.txt"
        exit 1
    fi
    grep -q "remote session applied $total_actions actions" "$WORK/drill-resume.txt" || {
        echo "FAIL: $name: resumed session did not apply all $total_actions actions"; cat "$WORK/drill-resume.txt"; exit 1; }
    echo "   $name: resumed at $half, converged: $partial_n + $resume_n = $want_n races over $total_actions actions"
}

echo "== restart drill: interrupt mid-session, SIGTERM, restart, resume"
drill drill "$WORK/racy.jsonl"
drill drill-tx "$WORK/txbank.jsonl"
drill drill-chan "$WORK/pipeline.jsonl"   # channel state must survive the checkpoint

echo "== per-session metrics"
T curl -sf "http://$METRICS/metrics" -o "$WORK/metrics.prom"
grep -q 'goldilocksd_session_applied_total{session="drill"}' "$WORK/metrics.prom" || {
    echo "FAIL: no per-session metrics for the drill session"; exit 1; }
grep -q 'goldilocksd_checkpoints_restored_total' "$WORK/metrics.prom" || {
    echo "FAIL: restore counter missing from scrape"; exit 1; }

echo "== pipeline stage histograms"
for stage in queue_wait apply verdict_flush; do
    n="$(sed -n "s/^goldilocksd_stage_${stage}_us_count \\([0-9][0-9]*\\)\$/\\1/p" "$WORK/metrics.prom")"
    if [ -z "$n" ] || [ "$n" -eq 0 ]; then
        echo "FAIL: stage histogram goldilocksd_stage_${stage}_us observed nothing"
        grep goldilocksd_stage "$WORK/metrics.prom" || true
        exit 1
    fi
    echo "   goldilocksd_stage_${stage}_us: $n samples"
done

stop_daemon

echo "== flight recorder dump on SIGTERM"
DUMP="$WORK/flight/flight-shutdown.jsonl"
[ -s "$DUMP" ] || { echo "FAIL: no shutdown flight dump at $DUMP"; ls -la "$WORK/flight" 2>/dev/null; exit 1; }
head -1 "$DUMP" | grep -q '"format":"goldilocks-flight"' || {
    echo "FAIL: shutdown dump has a bad header"; head -1 "$DUMP"; exit 1; }
grep -q '"k":"attach"' "$DUMP" || {
    echo "FAIL: shutdown dump records no session attaches"; exit 1; }
echo "   $(wc -l <"$DUMP") dump lines, header OK, session lifecycle present"

echo "PASS: service smoke"

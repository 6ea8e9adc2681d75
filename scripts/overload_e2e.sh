#!/usr/bin/env sh
# Overload end-to-end: proves the collector degrades gracefully instead
# of falling over — each phase starts its own ldpcollect with the
# matching hardening flags plus a -pprof side listener, and drives it
# with scripts/overloadcheck (go run-able Go: the assertions need the
# client library and the /debug/collector counters):
#
#   1. shed:     -max-conns 2 — a third connection is NACKed retryable
#                while the two admitted ones stay responsive, and a
#                freed slot admits a retry
#   2. inflight: -max-inflight 1000 -idle-timeout 2s — a half-sent
#                900-report batch holds the admission gate, a competing
#                batch is shed fast, and a reconnecting buffered client
#                converges to full acceptance once the staller's
#                deadline trips
#   3. stall:    -idle-timeout 500ms — a connection stalled mid-frame
#                is force-closed well within the 3s bound
#   4. hello-flood: default session TTL — 20k sequential devices each
#                dial, open a replay session with HELLO(0) and close;
#                the last tenth's median HELLO stays within 2x the first
#                tenth's, and /debug/collector counts 20k sessions live
#
# Every phase also requires the collector to exit cleanly on SIGTERM
# afterward: surviving abuse is not enough, it must still drain.
# Run from the repository root: sh scripts/overload_e2e.sh
set -eu

WORK="$(mktemp -d)"
PID=""

cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "overload_e2e: FAIL: $*" >&2
    exit 1
}

echo "== building ldpcollect + overloadcheck"
go build -o "$WORK/ldpcollect" ./cmd/ldpcollect
go build -o "$WORK/overloadcheck" ./scripts/overloadcheck

# start LOGFILE FLAGS... — launches a serve-only collector with the
# phase's hardening flags and a port-0 pprof side listener; sets PID.
start() {
    log="$1"
    shift
    "$WORK/ldpcollect" -users 0 -d 8 -addr 127.0.0.1:0 -pprof 127.0.0.1:0 "$@" \
        > "$log" 2>&1 &
    PID=$!
}

# wait_line LOGFILE SEDEXPR — polls the log for a line matching the sed
# expression and prints the extraction.
wait_line() {
    i=0
    while [ "$i" -lt 100 ]; do
        out="$(sed -n "$2" "$1" | head -n 1)"
        if [ -n "$out" ]; then
            echo "$out"
            return 0
        fi
        if ! kill -0 "$PID" 2>/dev/null; then
            cat "$1" >&2
            fail "collector exited before listening (log $1)"
        fi
        i=$((i + 1))
        sleep 0.1
    done
    cat "$1" >&2
    fail "collector never reported the expected address (log $1)"
}

wait_addr()  { wait_line "$1" 's/.*collector listening on \([^ ]*\) .*/\1/p'; }
wait_stats() { wait_line "$1" 's|.*pprof listening on http://\([^/]*\)/.*|\1|p'; }

# stop_clean LOGFILE — SIGTERM the collector and require a clean drain.
stop_clean() {
    kill -TERM "$PID"
    if ! wait "$PID"; then
        cat "$1" >&2
        fail "collector did not exit cleanly on SIGTERM (log $1)"
    fi
    PID=""
}

echo "== phase 1: connection shedding (-max-conns 2)"
start "$WORK/log1" -max-conns 2
ADDR="$(wait_addr "$WORK/log1")"
STATS="$(wait_stats "$WORK/log1")"
echo "   collector up at $ADDR (stats on $STATS)"
"$WORK/overloadcheck" -mode shed -addr "$ADDR" -stats "$STATS" -conns 2
stop_clean "$WORK/log1"

echo "== phase 2: in-flight batch shedding (-max-inflight 1000 -idle-timeout 2s)"
start "$WORK/log2" -max-inflight 1000 -idle-timeout 2s
ADDR="$(wait_addr "$WORK/log2")"
STATS="$(wait_stats "$WORK/log2")"
echo "   collector up at $ADDR (stats on $STATS)"
"$WORK/overloadcheck" -mode inflight -addr "$ADDR" -stats "$STATS"
stop_clean "$WORK/log2"

echo "== phase 3: stalled-connection force-close (-idle-timeout 500ms)"
start "$WORK/log3" -idle-timeout 500ms
ADDR="$(wait_addr "$WORK/log3")"
STATS="$(wait_stats "$WORK/log3")"
echo "   collector up at $ADDR (stats on $STATS)"
"$WORK/overloadcheck" -mode stall -addr "$ADDR" -stats "$STATS" -bound 3s
stop_clean "$WORK/log3"

echo "== phase 4: session-table flood (20000 x dial + HELLO(0) + close)"
start "$WORK/log4"
ADDR="$(wait_addr "$WORK/log4")"
STATS="$(wait_stats "$WORK/log4")"
echo "   collector up at $ADDR (stats on $STATS)"
"$WORK/overloadcheck" -mode hello-flood -addr "$ADDR" -stats "$STATS"
stop_clean "$WORK/log4"

echo "overload_e2e: PASS"

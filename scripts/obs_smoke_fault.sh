#!/bin/sh
# Fault-injected observability smoke test (the `make obs-smoke-fault` target).
#
# Runs two real mublastp searches with fault injection armed and asserts the
# failure counters on /metrics move and the process degrades as documented:
#
#   1. -faultspec 'sched.task=panic#2'        -> one query poisoned, the rest
#      printed; tasks_panicked > 0; exit status non-zero.
#   2. -faultspec 'core.hitdetect=delay:20ms' -timeout 40ms -> the deadline
#      lands mid-batch; deadline_exceeded > 0 and queries_cancelled > 0.
set -eu

workdir=$(mktemp -d "${TMPDIR:-/tmp}/obs-smoke-fault.XXXXXX")
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "obs-smoke-fault: building binaries..."
go build -o "$workdir/mublastp" ./cmd/mublastp
go build -o "$workdir/genseq" ./cmd/genseq

echo "obs-smoke-fault: generating workload..."
"$workdir/genseq" -n 600 -seed 11 -out "$workdir/db.fasta" \
    -queries 8 -qlen 200 -qout "$workdir/queries.fasta"

# run_faulted <name> <expected-exit-nonzero> <extra flags...>
# Starts mublastp with the given fault flags and -debug-linger, waits for the
# batch to finish, and leaves the scraped metrics in $workdir/<name>.metrics.
run_faulted() {
    name=$1; shift
    "$workdir/mublastp" -subjects "$workdir/db.fasta" -query "$workdir/queries.fasta" \
        -debug-addr 127.0.0.1:0 -debug-linger 30s "$@" \
        >"$workdir/$name.out" 2>"$workdir/$name.err" &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^mublastp: debug server listening on //p' "$workdir/$name.err" | head -n 1)
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || { echo "obs-smoke-fault: FAIL: $name exited before announcing server"; cat "$workdir/$name.err"; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "obs-smoke-fault: FAIL: $name never announced the debug server"; exit 1; }
    for _ in $(seq 1 300); do
        grep -q "queries searched in" "$workdir/$name.err" && break
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    curl -fsS "http://$addr/metrics" >"$workdir/$name.metrics"
    kill "$pid" 2>/dev/null || true
    status=0
    wait "$pid" 2>/dev/null || status=$?
    pid=""
    # The injected failure must surface in the exit status (batch ended
    # incomplete), not be swallowed.
    if [ "$status" -eq 0 ]; then
        echo "obs-smoke-fault: FAIL: $name exited 0 despite injected faults"
        cat "$workdir/$name.err"
        exit 1
    fi
}

metric_positive() {
    name=$1; metric=$2
    value=$(sed -n "s/^$metric //p" "$workdir/$name.metrics")
    if [ -z "$value" ] || [ "$value" -le 0 ]; then
        echo "obs-smoke-fault: FAIL: $name: $metric is '${value:-missing}', want > 0"
        return 1
    fi
    echo "obs-smoke-fault: $name: $metric = $value"
}

fail=0

echo "obs-smoke-fault: run 1: injected task panic..."
run_faulted panic -faultspec 'sched.task=panic#2'
metric_positive panic tasks_panicked || fail=1
grep -q "not completed" "$workdir/panic.err" || {
    echo "obs-smoke-fault: FAIL: poisoned query not reported on stderr"; fail=1; }
# The batch must still print the surviving queries.
survivors=$(grep -c '^Query:' "$workdir/panic.out" || true)
if [ "$survivors" -lt 1 ]; then
    echo "obs-smoke-fault: FAIL: no surviving query output after isolated panic"
    fail=1
else
    echo "obs-smoke-fault: panic: $survivors surviving queries printed"
fi

echo "obs-smoke-fault: run 2: deadline mid-batch..."
run_faulted deadline -faultspec 'core.hitdetect=delay:20ms' -timeout 40ms
metric_positive deadline deadline_exceeded || fail=1
metric_positive deadline queries_cancelled || fail=1

# Every failure counter must at least be exposed.
for metric in tasks_panicked queries_cancelled deadline_exceeded; do
    grep -q "^$metric " "$workdir/deadline.metrics" || {
        echo "obs-smoke-fault: FAIL: $metric not exposed on /metrics"; fail=1; }
done

if [ "$fail" -ne 0 ]; then
    echo "obs-smoke-fault: FAILED"
    exit 1
fi
echo "obs-smoke-fault: OK"

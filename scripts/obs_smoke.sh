#!/bin/sh
# End-to-end observability smoke test (the `make obs-smoke` target).
#
# Builds mublastp + genseq + tracecheck, runs a real batch search with
# -debug-addr and -trace, scrapes the live debug endpoint while the server
# lingers, and asserts: /metrics serves non-zero pipeline stage counters,
# /debug/vars and /debug/pprof/ respond, and the trace file holds one linked
# mublastp tree with a query span per query and all six stage spans.
set -eu

workdir=$(mktemp -d "${TMPDIR:-/tmp}/obs-smoke.XXXXXX")
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "obs-smoke: building binaries..."
go build -o "$workdir/mublastp" ./cmd/mublastp
go build -o "$workdir/genseq" ./cmd/genseq
go build -o "$workdir/tracecheck" ./cmd/tracecheck

echo "obs-smoke: generating workload..."
"$workdir/genseq" -n 800 -seed 7 -out "$workdir/db.fasta" \
    -queries 12 -qlen 256 -qout "$workdir/queries.fasta"

echo "obs-smoke: a misspelt -format must be refused before the database loads..."
rc=0
"$workdir/mublastp" -subjects "$workdir/db.fasta" -query "$workdir/queries.fasta" \
    -format tabluar >/dev/null 2>"$workdir/badformat.err" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q 'unknown -format "tabluar"' "$workdir/badformat.err" ||
    grep -q "database ready" "$workdir/badformat.err"; then
    echo "obs-smoke: FAIL: -format tabluar exited $rc, want usage error 2 before any work"
    cat "$workdir/badformat.err"
    exit 1
fi

echo "obs-smoke: starting mublastp with -debug-addr..."
"$workdir/mublastp" -subjects "$workdir/db.fasta" -query "$workdir/queries.fasta" \
    -debug-addr 127.0.0.1:0 -debug-linger 30s -trace "$workdir/trace.jsonl" \
    >"$workdir/stdout.txt" 2>"$workdir/stderr.txt" &
pid=$!

# The bound address is announced on stderr before the database loads.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^mublastp: debug server listening on //p' "$workdir/stderr.txt" | head -n 1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "obs-smoke: FAIL: mublastp exited early"; cat "$workdir/stderr.txt"; exit 1; }
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "obs-smoke: FAIL: debug server address never announced"
    cat "$workdir/stderr.txt"
    exit 1
fi
echo "obs-smoke: debug server at $addr"

# Wait until the search has finished (the server is now lingering) so the
# stage counters reflect a completed batch.
for _ in $(seq 1 300); do
    grep -q "queries searched in" "$workdir/stderr.txt" && break
    kill -0 "$pid" 2>/dev/null || { echo "obs-smoke: FAIL: mublastp exited before finishing"; cat "$workdir/stderr.txt"; exit 1; }
    sleep 0.1
done

curl -fsS "http://$addr/metrics" >"$workdir/metrics.txt"
curl -fsS "http://$addr/debug/vars" >"$workdir/vars.json"
curl -fsS "http://$addr/debug/pprof/" >/dev/null

fail=0
for metric in pipeline_stage_hit_detect_nanos_total pipeline_stage_sort_nanos_total \
              pipeline_hits_total sched_tasks_total pipeline_queries_total; do
    value=$(sed -n "s/^$metric //p" "$workdir/metrics.txt")
    if [ -z "$value" ] || [ "$value" -le 0 ]; then
        echo "obs-smoke: FAIL: $metric is '${value:-missing}', want > 0"
        fail=1
    else
        echo "obs-smoke: $metric = $value"
    fi
done

grep -q '"obs"' "$workdir/vars.json" || { echo "obs-smoke: FAIL: /debug/vars has no obs tree"; fail=1; }

"$workdir/tracecheck" -in "$workdir/trace.jsonl" -want 1 -daemon mublastp \
    -require stage:hit_detect,stage:prefilter,stage:sort,stage:ungapped,stage:gapped,stage:traceback || fail=1
queries=$(grep -o '"name":"query:' "$workdir/trace.jsonl" | wc -l)
[ "$queries" -eq 12 ] || { echo "obs-smoke: FAIL: trace has $queries query spans, want 12"; fail=1; }

kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
pid=""

if [ "$fail" -ne 0 ]; then
    echo "obs-smoke: FAILED"
    exit 1
fi
echo "obs-smoke: OK"

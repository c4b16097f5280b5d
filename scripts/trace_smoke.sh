#!/bin/sh
# Cross-tier tracing smoke test (the `make trace-smoke` target).
#
# Starts mublastpd (monolithic, traced, debug server on) and mublastpr
# (traced) over two traced mublastpd shard daemons on generated containers,
# runs a query batch through both tiers, and asserts the tracing contract
# end to end: exactly one stitched trace tree per request in every daemon's
# file (span IDs linked, the expected edge/admission/search and
# edge/search/scatter/shard/merge spans present, the six pipeline stage
# spans nested inside — all checked by cmd/tracecheck), the X-Request-ID
# response header on every reply, upstream trace context honored across
# both HTTP hops (client -> router -> shard daemons), and a non-empty
# /metrics on the debug address.
set -eu

workdir=$(mktemp -d "${TMPDIR:-/tmp}/trace-smoke.XXXXXX")
pids=""
cleanup() {
    for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "trace-smoke: building binaries..."
go build -o "$workdir/mublastpd" ./cmd/mublastpd
go build -o "$workdir/mublastpr" ./cmd/mublastpr
go build -o "$workdir/makedb" ./cmd/makedb
go build -o "$workdir/genseq" ./cmd/genseq
go build -o "$workdir/tracecheck" ./cmd/tracecheck

echo "trace-smoke: generating workload and containers..."
"$workdir/genseq" -n 400 -seed 31 -out "$workdir/db.fasta" \
    -queries 2 -qlen 160 -qout "$workdir/queries.fasta"
"$workdir/makedb" -in "$workdir/db.fasta" -out "$workdir/db.mublastp" 2>/dev/null
"$workdir/makedb" -in "$workdir/db.fasta" -out "$workdir/db.mublastp" -shards 2 2>/dev/null

queries_json=$(awk '
    function flush() { if (seq != "") { printf "%s{\"name\":\"q%d\",\"residues\":\"%s\"}", sep, n, seq; sep = ","; n++ } seq = "" }
    /^>/ { flush(); next }
    { seq = seq $0 }
    END { flush() }
' "$workdir/queries.fasta")
[ -n "$queries_json" ] || { echo "trace-smoke: FAIL: no queries extracted"; exit 1; }
search_body="{\"queries\":[$queries_json]}"

wait_line() { # name pid errfile sedexpr -> prints first match
    _out=""
    for _ in $(seq 1 100); do
        _out=$(sed -n "$4" "$3" | head -n 1)
        [ -n "$_out" ] && break
        kill -0 "$2" 2>/dev/null || { echo "trace-smoke: FAIL: $1 exited early" >&2; cat "$3" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$_out" ] || { echo "trace-smoke: FAIL: $1 never announced" >&2; cat "$3" >&2; exit 1; }
    printf '%s' "$_out"
}
serving='s/^mublastpd: serving on \([^ ]*\) .*/\1/p'

echo "trace-smoke: starting traced mublastpd..."
"$workdir/mublastpd" -db "$workdir/db.mublastp" -addr 127.0.0.1:0 \
    -debug-addr 127.0.0.1:0 -trace "$workdir/mono.trace.jsonl" -drain-grace 5s \
    >/dev/null 2>"$workdir/mono.err" &
mono_pid=$!
pids="$pids $mono_pid"
mono_addr=$(wait_line mublastpd "$mono_pid" "$workdir/mono.err" "$serving")
mono_dbg=$(wait_line mublastpd "$mono_pid" "$workdir/mono.err" 's/^mublastpd: debug server on \([^ ]*\).*/\1/p')

# The shard daemons search with the global totals, read off the monolithic
# daemon's handshake surface.
info=$(curl -fsS "http://$mono_addr/shard/info")
global_seqs=$(printf '%s' "$info" | sed -n 's/.*"sequences":\([0-9]*\).*/\1/p')
global_res=$(printf '%s' "$info" | sed -n 's/.*"total_residues":\([0-9]*\).*/\1/p')
[ -n "$global_seqs" ] && [ -n "$global_res" ] || {
    echo "trace-smoke: FAIL: could not read the global search space"; exit 1; }

echo "trace-smoke: starting 2 traced shard daemons + traced mublastpr..."
workers=""
for s in 0 1; do
    "$workdir/mublastpd" -db "$workdir/db.mublastp.shard$s-of-2" -addr 127.0.0.1:0 \
        -global-sequences "$global_seqs" -global-residues "$global_res" \
        -trace "$workdir/shard$s.trace.jsonl" -drain-grace 2s \
        >/dev/null 2>"$workdir/shard$s.err" &
    shard_pid=$!
    pids="$pids $shard_pid"
    workers="$workers${workers:+,}http://$(wait_line mublastpd "$shard_pid" "$workdir/shard$s.err" "$serving")"
done
"$workdir/mublastpr" -workers "$workers" \
    -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 \
    -trace "$workdir/router.trace.jsonl" \
    -drain-grace 5s >/dev/null 2>"$workdir/router.err" &
router_pid=$!
pids="$pids $router_pid"
router_addr=$(wait_line mublastpr "$router_pid" "$workdir/router.err" 's/^mublastpr: serving on \([^ ]*\) .*/\1/p')
router_dbg=$(wait_line mublastpr "$router_pid" "$workdir/router.err" 's/^mublastpr: debug server on \([^ ]*\).*/\1/p')
echo "trace-smoke: mublastpd at $mono_addr (debug $mono_dbg), mublastpr at $router_addr (debug $router_dbg)"
grep -q "tracing requests to" "$workdir/router.err" || {
    echo "trace-smoke: FAIL: router did not announce its trace sink"; exit 1; }

fail=0

post() { # addr body out hdrout [extra curl args] -> status code
    _addr=$1; _body=$2; _out=$3; _hdr=$4; shift 4
    curl -s -o "$_out" -D "$_hdr" -w '%{http_code}' -X POST \
        -H 'Content-Type: application/json' "$@" -d "$_body" "http://$_addr/search"
}

echo "trace-smoke: batch through both tiers..."
for i in 1 2 3; do
    code=$(post "$router_addr" "$search_body" "$workdir/r$i.json" "$workdir/r$i.hdr")
    [ "$code" = "200" ] || { echo "trace-smoke: FAIL: router search $i = $code"; fail=1; }
    grep -qi '^X-Request-ID: ' "$workdir/r$i.hdr" || {
        echo "trace-smoke: FAIL: router response $i has no X-Request-ID header"; fail=1; }
done
code=$(post "$mono_addr" "$search_body" "$workdir/m1.json" "$workdir/m1.hdr")
[ "$code" = "200" ] || { echo "trace-smoke: FAIL: mublastpd search = $code"; fail=1; }
grep -qi '^X-Request-ID: ' "$workdir/m1.hdr" || {
    echo "trace-smoke: FAIL: mublastpd response has no X-Request-ID header"; fail=1; }

echo "trace-smoke: upstream trace context across the HTTP hop..."
code=$(post "$router_addr" "$search_body" "$workdir/up.json" "$workdir/up.hdr" \
    -H 'X-Request-ID: req-smoke000001' -H 'X-Trace-ID: 00000000cafef00d')
[ "$code" = "200" ] || { echo "trace-smoke: FAIL: upstream-context search = $code"; fail=1; }
grep -qi '^X-Request-ID: req-smoke000001' "$workdir/up.hdr" || {
    echo "trace-smoke: FAIL: upstream request ID not echoed back"; fail=1; }
grep -q '"trace_id":"00000000cafef00d"' "$workdir/router.trace.jsonl" || {
    echo "trace-smoke: FAIL: upstream trace ID not honored in the trace tree"; fail=1; }
# Second hop: each shard daemon's tree of that request carries the router's
# request and trace IDs, and its edge span hangs under a span of the
# router's tree (the router's shard<i> span). A shard daemon writes its tree
# once its reply is on the wire, so it may land just after the router's.
for s in 0 1; do
    line=""
    for _ in $(seq 1 20); do
        line=$(grep '"request_id":"req-smoke000001"' "$workdir/shard$s.trace.jsonl" || true)
        [ -n "$line" ] && break
        sleep 0.1
    done
    case "$line" in
    *'"trace_id":"00000000cafef00d"'*) ;;
    *) echo "trace-smoke: FAIL: shard $s has no tree with the router's request and trace IDs"; fail=1; continue ;;
    esac
    parent=$(printf '%s' "$line" | sed -n 's/.*"root":{"name":"edge","span_id":"[0-9a-f]*","parent_id":"\([0-9a-f]*\)".*/\1/p')
    [ -n "$parent" ] && grep '"request_id":"req-smoke000001"' "$workdir/router.trace.jsonl" | grep -q "\"span_id\":\"$parent\"" || {
        echo "trace-smoke: FAIL: shard $s's edge span is not parented under the router's tree"; fail=1; }
done

echo "trace-smoke: one stitched trace tree per request..."
if ! "$workdir/tracecheck" -in "$workdir/router.trace.jsonl" -want 4 -daemon mublastpr \
    -require "edge,search,scatter,shard0,shard1,merge,query:0,stage:hit_detect,stage:prefilter,stage:sort,stage:ungapped,stage:gapped,stage:traceback"; then
    echo "trace-smoke: FAIL: router trace trees invalid"; fail=1
fi
for s in 0 1; do
    if ! "$workdir/tracecheck" -in "$workdir/shard$s.trace.jsonl" -want 4 -daemon mublastpd \
        -require "edge,admission,search,stage:hit_detect,stage:traceback"; then
        echo "trace-smoke: FAIL: shard $s trace trees invalid"; fail=1
    fi
done
if ! "$workdir/tracecheck" -in "$workdir/mono.trace.jsonl" -want 1 -daemon mublastpd \
    -require "edge,admission,search,stage:hit_detect,stage:traceback"; then
    echo "trace-smoke: FAIL: mublastpd trace trees invalid"; fail=1
fi

echo "trace-smoke: debug /metrics..."
curl -fsS "http://$mono_dbg/metrics" >"$workdir/mono.metrics" || {
    echo "trace-smoke: FAIL: mublastpd debug /metrics unreachable"; fail=1; }
[ -s "$workdir/mono.metrics" ] || { echo "trace-smoke: FAIL: mublastpd /metrics empty"; fail=1; }
grep -q '^requests_admitted [1-9]' "$workdir/mono.metrics" || {
    echo "trace-smoke: FAIL: requests_admitted did not move on the debug address"; fail=1; }
curl -fsS "http://$router_dbg/metrics" >"$workdir/router.metrics" || {
    echo "trace-smoke: FAIL: mublastpr debug /metrics unreachable"; fail=1; }
grep -q '^router_requests [1-9]' "$workdir/router.metrics" || {
    echo "trace-smoke: FAIL: router_requests did not move on the debug address"; fail=1; }

for p in $pids; do kill -TERM "$p" 2>/dev/null || true; done
for p in $pids; do wait "$p" 2>/dev/null || true; done

if [ "$fail" -ne 0 ]; then
    echo "trace-smoke: FAILED"
    exit 1
fi
echo "trace-smoke: OK"

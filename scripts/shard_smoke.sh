#!/bin/sh
# Sharded serving smoke test (the `make shard-smoke` target).
#
# Builds the toolchain, splits one generated database into 3 shard
# containers with `makedb -shards`, serves each from its own mublastpd shard
# daemon (started with the global totals makedb prints) behind the
# scatter-gather router (mublastpr -workers), next to a monolithic mublastpd
# on the unsharded container, scatters the same query batch through both,
# and diffs the response payloads byte for byte across the four processes —
# the end-to-end check that sharding changes capacity, never results. Also
# checks that mublastpr refuses the search flags only the shard daemons
# read, its router_* metrics, and a clean SIGTERM drain.
set -eu

workdir=$(mktemp -d "${TMPDIR:-/tmp}/shard-smoke.XXXXXX")
pids=""
cleanup() {
    for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "shard-smoke: building binaries..."
go build -o "$workdir/mublastpd" ./cmd/mublastpd
go build -o "$workdir/mublastpr" ./cmd/mublastpr
go build -o "$workdir/makedb" ./cmd/makedb
go build -o "$workdir/genseq" ./cmd/genseq

echo "shard-smoke: generating workload and containers..."
"$workdir/genseq" -n 500 -seed 21 -out "$workdir/db.fasta" \
    -queries 3 -qlen 180 -qout "$workdir/queries.fasta"
"$workdir/makedb" -in "$workdir/db.fasta" -out "$workdir/db.mublastp" 2>/dev/null
"$workdir/makedb" -in "$workdir/db.fasta" -out "$workdir/db.mublastp" -shards 3 2>"$workdir/makedb.err"
for s in 0 1 2; do
    [ -f "$workdir/db.mublastp.shard$s-of-3" ] || {
        echo "shard-smoke: FAIL: shard container $s missing"; exit 1; }
done

# Pull the three query sequences out of the FASTA (joined lines each).
queries_json=$(awk '
    function flush() { if (seq != "") { printf "%s{\"name\":\"q%d\",\"residues\":\"%s\"}", sep, n, seq; sep = ","; n++ } seq = "" }
    /^>/ { flush(); next }
    { seq = seq $0 }
    END { flush() }
' "$workdir/queries.fasta")
[ -n "$queries_json" ] || { echo "shard-smoke: FAIL: no queries extracted"; exit 1; }
search_body="{\"queries\":[$queries_json]}"

fail=0

# The search flags are the shard daemons': the router refuses them at flag
# parsing instead of accepting and ignoring them.
status=0
"$workdir/mublastpr" -evalue 1e-5 -workers http://127.0.0.1:1 >/dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "shard-smoke: FAIL: mublastpr -evalue exit status $status, want 2"; fail=1; }

wait_addr() { # name pid errfile -> prints addr
    _addr=""
    for _ in $(seq 1 100); do
        _addr=$(sed -n "s/^$1: serving on \([^ ]*\) .*/\1/p" "$3" | head -n 1)
        [ -n "$_addr" ] && break
        kill -0 "$2" 2>/dev/null || { echo "shard-smoke: FAIL: $1 exited early" >&2; cat "$3" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$_addr" ] || { echo "shard-smoke: FAIL: $1 never announced its address" >&2; cat "$3" >&2; exit 1; }
    printf '%s' "$_addr"
}
echo "shard-smoke: starting monolithic mublastpd..."
"$workdir/mublastpd" -db "$workdir/db.mublastp" -addr 127.0.0.1:0 \
    -drain-grace 5s >/dev/null 2>"$workdir/mono.err" &
mono_pid=$!
pids="$pids $mono_pid"
mono_addr=$(wait_addr mublastpd "$mono_pid" "$workdir/mono.err")

# The global search space every shard daemon must be told about, read off
# the monolithic daemon's own handshake surface; makedb -shards must have
# printed the same totals in its serving commands.
info=$(curl -fsS "http://$mono_addr/shard/info")
global_seqs=$(printf '%s' "$info" | sed -n 's/.*"sequences":\([0-9]*\).*/\1/p')
global_res=$(printf '%s' "$info" | sed -n 's/.*"total_residues":\([0-9]*\).*/\1/p')
[ -n "$global_seqs" ] && [ -n "$global_res" ] || {
    echo "shard-smoke: FAIL: could not read the global search space"; exit 1; }
for s in 0 1 2; do
    grep -qx "mublastpd -db $workdir/db.mublastp.shard$s-of-3 -addr <host$s:port> -global-sequences $global_seqs -global-residues $global_res" "$workdir/makedb.err" || {
        echo "shard-smoke: FAIL: makedb did not print shard $s's mublastpd command"; cat "$workdir/makedb.err"; fail=1; }
done
grep -qx 'mublastpr -workers http://<host0:port>,http://<host1:port>,http://<host2:port>' "$workdir/makedb.err" || {
    echo "shard-smoke: FAIL: makedb did not print the mublastpr command"; cat "$workdir/makedb.err"; fail=1; }

echo "shard-smoke: starting 3 shard daemons and mublastpr -workers..."
workers=""
for s in 0 1 2; do
    "$workdir/mublastpd" -db "$workdir/db.mublastp.shard$s-of-3" -addr 127.0.0.1:0 \
        -global-sequences "$global_seqs" -global-residues "$global_res" \
        -drain-grace 2s >/dev/null 2>"$workdir/shard$s.err" &
    shard_pid=$!
    pids="$pids $shard_pid"
    workers="$workers${workers:+,}http://$(wait_addr mublastpd "$shard_pid" "$workdir/shard$s.err")"
done
"$workdir/mublastpr" -workers "$workers" \
    -addr 127.0.0.1:0 -drain-grace 5s >/dev/null 2>"$workdir/router.err" &
router_pid=$!
pids="$pids $router_pid"
router_addr=$(wait_addr mublastpr "$router_pid" "$workdir/router.err")
echo "shard-smoke: monolithic at $mono_addr, router at $router_addr over $workers"

grep -q "remote replicas) coherent" "$workdir/router.err" || {
    echo "shard-smoke: FAIL: router did not announce the coherence handshake"; exit 1; }

post() { # addr body out -> status code
    curl -s -o "$3" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
        -d "$2" "http://$1/search"
}

echo "shard-smoke: scatter vs monolithic diff..."
code=$(post "$mono_addr" "$search_body" "$workdir/mono.json")
[ "$code" = "200" ] || { echo "shard-smoke: FAIL: monolithic search = $code"; fail=1; }
code=$(post "$router_addr" "$search_body" "$workdir/router.json")
[ "$code" = "200" ] || { echo "shard-smoke: FAIL: sharded search = $code: $(cat "$workdir/router.json")"; fail=1; }

# Everything before the per-request stats — degraded flag, generation, and
# the full results array (names, completion, every hit with its score,
# E-value, coordinates) — must be byte-identical across the two daemons.
sed 's/,"stats".*//' "$workdir/mono.json" >"$workdir/mono.results"
sed 's/,"stats".*//' "$workdir/router.json" >"$workdir/router.results"
if ! cmp -s "$workdir/mono.results" "$workdir/router.results"; then
    echo "shard-smoke: FAIL: sharded results differ from monolithic"
    diff "$workdir/mono.results" "$workdir/router.results" | head -5
    fail=1
else
    echo "shard-smoke: results byte-identical ($(grep -o '"subject"' "$workdir/mono.results" | wc -l | tr -d ' ') hits)"
fi
grep -q '"completed":true' "$workdir/router.results" || {
    echo "shard-smoke: FAIL: no completed query in the sharded response"; fail=1; }
grep -q '"e_value"' "$workdir/router.results" || {
    echo "shard-smoke: FAIL: sharded response carries no scored hits; diff is vacuous"; fail=1; }

curl -fsS "http://$router_addr/metrics" >"$workdir/metrics.txt"
for metric in router_requests:1 router_fanout_shards:3 router_shard_searches:3 router_requests_all_shed:0; do
    name=${metric%:*}; want=${metric#*:}
    value=$(sed -n "s/^$name //p" "$workdir/metrics.txt")
    if [ "$value" != "$want" ]; then
        echo "shard-smoke: FAIL: $name = '${value:-missing}', want $want"
        fail=1
    else
        echo "shard-smoke: $name = $value"
    fi
done

echo "shard-smoke: SIGTERM drain..."
kill -TERM "$router_pid"
status=0
i=0
while kill -0 "$router_pid" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 150 ] && { echo "shard-smoke: FAIL: router did not exit within 15s"; fail=1; break; }
    sleep 0.1
done
wait "$router_pid" 2>/dev/null || status=$?
[ "$status" -eq 0 ] || { echo "shard-smoke: FAIL: router exit status $status, want 0"; fail=1; }
grep -q "drained, exiting" "$workdir/router.err" || {
    echo "shard-smoke: FAIL: no drain confirmation"; cat "$workdir/router.err"; fail=1; }

for p in $pids; do kill -TERM "$p" 2>/dev/null || true; done
for p in $pids; do wait "$p" 2>/dev/null || true; done

if [ "$fail" -ne 0 ]; then
    echo "shard-smoke: FAILED"
    exit 1
fi
echo "shard-smoke: OK"

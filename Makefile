# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all build vet bench-build fmtcheck test race fuzz chaos loc bench obs-smoke obs-smoke-fault serve-smoke shard-smoke remote-smoke trace-smoke crash-smoke experiments examples golden clean

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

# The end-to-end benchmark is a module of its own (benchmarks/go.mod, with
# `replace repro => ../`), so `go vet ./...` above never sees it. Vetting it
# compiles the harness and its tests against the working tree: a drift in the
# exported API of blast, internal/router or internal/server fails here
# instead of in the benchmark pipeline.
bench-build:
	go vet -C benchmarks ./...

# gofmt gate: fail if any tracked Go file needs reformatting. gofmt -l
# prints offenders; grep turns a non-empty list into a non-zero exit.
fmtcheck:
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

test: vet bench-build fmtcheck race fuzz chaos obs-smoke obs-smoke-fault serve-smoke shard-smoke remote-smoke trace-smoke crash-smoke
	go test ./...

# Race-detector pass over the packages with concurrent hot paths (the batch
# scheduler, the task-grid runtime, the engines it drives, the index build's
# concurrent blocks from pooled scratch, the hot-reload session, the serving
# layer's admission machinery, and the observability layer's lock-free
# metrics and concurrent trace sink).
race:
	go test -race ./internal/core ./internal/parallel ./internal/search ./internal/baseline ./internal/dbindex ./internal/neighbor ./internal/server ./internal/router ./internal/obs ./internal/reqtrace ./blast

# Chaos harness: randomized fault schedules (injected panics, delays, errors,
# dropped RPCs, torn response bodies) against the batch scheduler, the serving
# layer, and the remote scatter transport under concurrent load, under the
# race detector.
# Each round logs its seed and fault schedule; on failure the log ends with a
# CHAOS_SEED=... replay line. CHAOS_ROUNDS widens the sweep, CHAOS_SEED pins
# one schedule.
chaos:
	go test -race -run 'TestChaos' -v ./internal/core ./internal/server ./internal/router

# Short-budget fuzz pass over every decoder at the I/O boundary (the FASTA
# parser, the sequence deserializer, the container loader) and
# every equivalence the engine's identity rests on (shard and tier merges,
# the three statements of the two-hit rule, one last-hit slot per block
# diagonal vs one per sequence diagonal, also where hits straddle an index
# page boundary, fast kernels vs their oracles).
# Each corpus gets a fixed time slice so the default test flow stays fast;
# crank -fuzztime up for a real hunt.
FUZZTIME ?= 10s
fuzz:
	go test -fuzz=FuzzReader -fuzztime=$(FUZZTIME) -run='^$$' ./internal/fasta
	go test -fuzz=FuzzReadFrom -fuzztime=$(FUZZTIME) -run='^$$' ./internal/dbase
	go test -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) -run='^$$' ./blast
	go test -fuzz=FuzzShardEquivalence -fuzztime=$(FUZZTIME) -run='^$$' ./blast
	go test -fuzz=FuzzTieredEquivalence -fuzztime=$(FUZZTIME) -run='^$$' ./blast
	go test -fuzz=FuzzPairRuleEquivalence -fuzztime=$(FUZZTIME) -run='^$$' ./internal/search
	go test -fuzz=FuzzBlockDiagonalEquivalence -fuzztime=$(FUZZTIME) -run='^$$' ./internal/core
	go test -fuzz=FuzzPageBoundaryEquivalence -fuzztime=$(FUZZTIME) -run='^$$' ./internal/core
	go test -fuzz=FuzzExtendEquivalence -fuzztime=$(FUZZTIME) -run='^$$' ./internal/ungapped
	go test -fuzz=FuzzExtendScoreProfEquivalence -fuzztime=$(FUZZTIME) -run='^$$' ./internal/gapped
	go test -fuzz=FuzzTracebackEquivalence -fuzztime=$(FUZZTIME) -run='^$$' ./internal/gapped
	go test -fuzz=FuzzLSDPairsEquivalence -fuzztime=$(FUZZTIME) -run='^$$' ./internal/hitsort

# Non-test lines of Go per package of the root module, then their total —
# the figure CHANGES.md reports before -> after for every PR (ROADMAP aim 2),
# counted with the same pipeline since PR 15.
loc:
	@for p in $$(go list -f '{{.Dir}}' ./... | sed "s|^$$PWD/||; s|^$$PWD$$|.|"); do \
		printf '%6d %s\n' "$$(ls $$p/*.go | grep -v _test | xargs cat | wc -l)" "$$p"; done | \
		awk '{ print; total += $$1 } END { printf "%6d total\n", total }'

bench:
	go test -bench=. -benchmem ./...

# End-to-end observability smoke test: runs a live batch search with
# -debug-addr and -trace, scrapes /metrics, /debug/vars and /debug/pprof/,
# asserts the pipeline stage counters moved, and checks the trace file with
# cmd/tracecheck (one linked mublastp tree, six stage spans).
obs-smoke:
	./scripts/obs_smoke.sh

# Fault-injected observability smoke test: runs mublastp with -faultspec and
# asserts the failure counters (tasks_panicked, deadline_exceeded,
# queries_cancelled) move on /metrics and the run degrades as documented.
obs-smoke-fault:
	./scripts/obs_smoke_fault.sh

# Daemon lifecycle smoke test: starts mublastpd on a prebuilt container and
# drives concurrent searches, a hot reload mid-flight, a corrupt-container
# reload (must be rejected with the old database still serving), the serving
# counters on /metrics, and a clean SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# Sharded serving smoke test: splits a database with `makedb -shards`, serves
# each shard from a mublastpd shard daemon behind the scatter-gather router
# (mublastpr -workers) next to a monolithic mublastpd, sends the same batch
# to both, and requires the response payloads — every hit, score, and
# E-value — to be byte-identical.
shard-smoke:
	./scripts/shard_smoke.sh

# Remote-topology smoke test: a 2-shard x 2-replica mublastpd fleet behind
# mublastpr -workers, checked byte-identical against a monolithic daemon,
# then the failure drills — SIGKILL one replica (fleet keeps serving, prober
# ejects, /readyz stays green), SIGKILL the shard's last replica (/readyz
# 503), restart (readmission, byte-identity restored).
remote-smoke:
	./scripts/remote_smoke.sh

# Crash-recovery smoke test: SIGKILL a real makedb -append mid-commit at
# varied points, then require recovery to a verifiable store at exactly the
# pre- or post-append manifest, no batch lost or double-applied across the
# drill, and a clean compaction afterwards.
crash-smoke:
	./scripts/crash_smoke.sh

# Cross-tier tracing smoke test: traced mublastpd + mublastpr over traced
# shard daemons serve a batch, then cmd/tracecheck asserts one stitched
# (span-ID-linked) trace tree per request in every daemon's file, with the
# edge/search/scatter/shard/merge and six-stage spans present, X-Request-ID
# on every response, upstream trace context honored across both HTTP hops,
# and non-empty debug-address /metrics.
trace-smoke:
	./scripts/trace_smoke.sh

# Regenerate every evaluation table (Section V), about 2 minutes on 2 vCPUs.
experiments:
	go run ./cmd/experiments -seqs 4000 -batch 16

examples:
	go run ./examples/quickstart
	go run ./examples/metagenomics -seqs 1500 -reads 16

# Refresh the golden regression corpus after an intentional behaviour change.
golden:
	go test ./internal/core -run Golden -update-golden

clean:
	go clean ./...

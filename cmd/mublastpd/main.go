// Command mublastpd is the long-running search daemon: it loads a database
// container or opens an ingest store (both made by makedb) once, keeps the
// index resident, and serves searches over HTTP/JSON with production
// robustness machinery — bounded admission with 429 backpressure, token
// concurrency sized to the scheduler, degraded mode under sustained queue
// pressure, hot database reload, and graceful drain.
//
// Usage:
//
//	mublastpd -db db.mublastp -addr :8044
//	mublastpd -store db.store -addr 127.0.0.1:0 -queue 128 -concurrency 2
//
// Endpoints (all on -addr):
//
//	POST /search        {"queries":[{"name":"q1","residues":"MKT..."}], "timeout_ms":5000}
//	POST /reload        {"path":"new.mublastp"}   open-then-swap: a corrupt or
//	                    mismatched candidate is refused 422 with the old database
//	                    serving; an ingest-store path reloads base+deltas (with
//	                    -store, only the daemon's own store: another path is 409)
//	POST /ingest        (with -store) append a sequence batch as a WAL-journaled
//	                    delta and swap the serving generation; bounded, single-
//	                    flight, sheds concurrent ingests with 503 + Retry-After
//	POST /shard/search  one shard's part of a routed scatter (driven by
//	                    mublastpr -workers; pair with -global-sequences/-global-residues)
//	GET  /shard/info    shard-coherence handshake for the router
//	GET  /healthz       liveness; /readyz readiness (503 while draining)
//	GET  /metrics, /debug/vars, /debug/pprof/  (the obs debug surface)
//
// SIGINT/SIGTERM start a graceful drain: new requests get 503, in-flight
// searches get -drain-grace to finish, then are cancelled so their handlers
// flush partial results. A second signal force-exits with code 3. That
// lifecycle, the flags behind it (-addr, -timeout, -drain-grace,
// -debug-addr, -trace, -faultspec, -faultseed) and the HTTP edge are shared
// with mublastpr (server.RegisterFlags, server.Edge); the search flags
// (-threads, -evalue, -max-hits) are this daemon's own. The -trace file is
// the one per-request log. The request bounds without a flag are constants
// of internal/server: a 2-minute cap on client deadlines, 64 queries a
// request (16 in degraded mode, whose deadline is a quarter of -timeout), a
// 1 s Retry-After on sheds and 10000 sequences an ingest. The search rules
// (T = 11, A = 40, X-drops 16/38, gaps 11/1) are NCBI BLASTP's and have no
// flag either.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/blast"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "mublastpd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	p := blast.DefaultParams()
	flag.IntVar(&p.Threads, "threads", 0, "threads per batch search (0 = all cores)")
	flag.Float64Var(&p.EValueCutoff, "evalue", 10, "E-value cutoff")
	flag.IntVar(&p.MaxResults, "max-hits", 250, "maximum hits per query")
	var (
		serve        = server.RegisterFlags("mublastpd", ":8044")
		dbPath       = flag.String("db", "", "prebuilt database container (from makedb); reloadable at runtime")
		storeDir     = flag.String("store", "", "serve from the crash-safe ingest store at this directory (makedb -store); enables POST /ingest")
		queue        = flag.Int("queue", 64, "admission queue bound; excess requests are shed with 429")
		concurrency  = flag.Int("concurrency", 0, "concurrent batch searches (0 = size to the scheduler's worker pool)")
		globalSeqs   = flag.Int64("global-sequences", 0, "sequence count of the whole logical database when -db is one shard of it; with -global-residues, E-values use the global search space so a remote merge is byte-identical")
		globalRes    = flag.Int64("global-residues", 0, "residue count of the whole logical database when -db is one shard of it")
		compactAfter = flag.Int("compact-after", 0, "compact the store once it accumulates this many deltas (0 = only on request)")
	)
	flag.Parse()
	if (*dbPath == "") == (*storeDir == "") {
		fmt.Fprintln(os.Stderr, "mublastpd: need exactly one of -db / -store")
		flag.Usage()
		os.Exit(2)
	}
	if (*globalSeqs > 0) != (*globalRes > 0) {
		return fmt.Errorf("-global-sequences and -global-residues must be set together")
	}

	return serve(func(cfg server.Config) (server.Daemon, string, error) {
		if *globalSeqs > 0 {
			p.GlobalDBSequences = *globalSeqs
			p.GlobalDBResidues = *globalRes
			cfg.Logf("serving as a shard worker: global search space %d sequences, %d residues", *globalSeqs, *globalRes)
		}

		start := time.Now()
		var ses *blast.Session
		if *dbPath != "" {
			var err error
			if ses, err = blast.OpenSession(*dbPath, p); err != nil {
				return nil, "", fmt.Errorf("loading database: %w", err)
			}
		} else {
			// Opening the store runs crash recovery (WAL replay, orphan GC)
			// before anything serves, so a daemon restarted after a mid-ingest
			// crash comes up on a consistent manifest without operator action.
			store, err := blast.OpenStore(*storeDir, p)
			if err != nil {
				return nil, "", fmt.Errorf("opening store: %w", err)
			}
			db, err := store.Database()
			if err != nil {
				return nil, "", fmt.Errorf("loading store tiers: %w", err)
			}
			ses, cfg.Store = blast.NewSession(db, p), store
			cfg.Logf("ingest store %s at manifest seq %d (%s), %d deltas",
				store.Dir(), store.ManifestSeq(), store.ManifestHash(), store.NumDeltas())
		}
		db := ses.DB()
		cfg.Logf("database ready in %v (%d sequences, %d blocks)",
			time.Since(start).Round(time.Millisecond), db.NumSequences(), db.NumBlocks())

		cfg.Queue, cfg.Concurrency, cfg.CompactAfter = *queue, *concurrency, *compactAfter
		srv := server.New(ses, p, cfg)
		cfg = srv.Config()
		return srv, fmt.Sprintf("queue %d, concurrency %d, timeout %v", cfg.Queue, cfg.Concurrency, cfg.DefaultTimeout), nil
	})
}

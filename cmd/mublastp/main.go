// Command mublastp searches protein queries against a database with the
// muBLASTP engine. The database can be a FASTA file (indexed on the fly) or a
// prebuilt index from makedb.
//
// Usage:
//
//	mublastp -db db.mublastp -query queries.fasta
//	mublastp -subjects db.fasta -query queries.fasta -format full
//	mublastp -db db.mublastp -query queries.fasta -timeout 30s
//	mublastp -verifydb db.mublastp
//	mublastp -verifydb db.shard0-of-2,db.shard1-of-2
//	mublastp -verifydb dbstore/
//
// SIGINT/SIGTERM cancel the running batch between tasks: completed queries
// are printed (identical to an uninterrupted run), the trace file and debug
// server shut down cleanly, and the exit status is non-zero. A second
// SIGINT/SIGTERM during that graceful shutdown force-exits immediately with
// exit code 3 (sigctx.ExitForced).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/blast"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/reqtrace"
	"repro/internal/sigctx"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "mublastp: %v\n", err)
		os.Exit(1)
	}
}

// run owns the whole lifecycle so every cleanup is a defer: interrupted or
// failed runs still flush the trace sink, stop profiles, and close the
// debug server. Cleanup failures surface through the named return so a
// broken trace flush is never silently swallowed.
func run() (retErr error) {
	var (
		dbPath      = flag.String("db", "", "prebuilt database index (from makedb)")
		subjects    = flag.String("subjects", "", "FASTA database to index on the fly")
		queryPath   = flag.String("query", "", "FASTA queries (required)")
		threads     = flag.Int("threads", 0, "threads for batch search (0 = all cores)")
		evalue      = flag.Float64("evalue", 10, "E-value cutoff")
		maxHits     = flag.Int("max-hits", 250, "maximum hits per query")
		format      = flag.String("format", "summary", "output format: summary, full, or tabular")
		timeout     = flag.Duration("timeout", 0, "abort the batch search after this long, keeping completed queries (0 = no deadline)")
		faultSpec   = flag.String("faultspec", "", "arm fault-injection sites, e.g. 'sched.task=panic#3,core.hitdetect=delay:5ms' (testing aid)")
		faultSeed   = flag.Uint64("faultseed", 1, "seed for probabilistic -faultspec clauses")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile of the search to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile after the search to this file")
		tracePath   = flag.String("trace", "", "write the run's trace tree (one query span per query, six stage spans each) as JSONL to this file")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address (e.g. :6060)")
		debugLinger = flag.Duration("debug-linger", 0, "keep the -debug-addr server up this long after the search finishes")
		verifyDB    = flag.String("verifydb", "", "verify a database and exit: a container file, a comma-separated shard set (cross-checked as one build), or an ingest-store directory")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the batch; a second signal during the graceful
	// wind-down (partial-result printing, trace flush) force-exits with a
	// distinct code instead of being swallowed by the still-held signal
	// registration, so an operator can always escalate past a slow drain.
	ctx, stop := sigctx.WithForcedExit(context.Background(), func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "mublastp: %v received, stopping after in-flight tasks (signal again to force exit)\n", sig)
	})
	defer stop()

	if *faultSpec != "" {
		if err := faultinject.Enable(*faultSpec, *faultSeed); err != nil {
			return err
		}
		defer faultinject.Disable()
		fmt.Fprintf(os.Stderr, "mublastp: fault injection armed: %s (seed %d)\n", *faultSpec, *faultSeed)
	}

	// The debug server comes up before the database loads so the whole run —
	// including index construction — is observable live, and goes down
	// through a bounded Shutdown on every exit path so a scrape in progress
	// completes instead of being reset mid-dump.
	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, obs.Default)
		if err != nil {
			return err
		}
		defer func() {
			if err := srv.ShutdownTimeout(2 * time.Second); err != nil && retErr == nil {
				retErr = fmt.Errorf("debug server shutdown: %w", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "mublastp: debug server listening on %s\n", srv.Addr)
	}
	if *verifyDB != "" {
		return runVerify(*verifyDB)
	}
	if *queryPath == "" || (*dbPath == "") == (*subjects == "") {
		badUsage("need -query and exactly one of -db / -subjects")
	}
	if *format != "summary" && *format != "full" && *format != "tabular" {
		badUsage(fmt.Sprintf("unknown -format %q (want summary, full, or tabular)", *format))
	}

	p := blast.DefaultParams()
	p.EValueCutoff = *evalue
	p.MaxResults = *maxHits
	p.Threads = *threads

	var db *blast.Database
	var err error
	start := time.Now()
	if *dbPath != "" {
		db, err = blast.LoadFile(*dbPath, p)
	} else {
		var seqs []blast.Sequence
		if seqs, err = blast.ReadFASTAFile(*subjects); err == nil {
			db, err = blast.NewDatabase(seqs, p)
		}
	}
	if err != nil {
		return fmt.Errorf("loading database: %w", err)
	}
	fmt.Fprintf(os.Stderr, "mublastp: database ready in %v (%d sequences, %d blocks)\n",
		time.Since(start).Round(time.Millisecond), db.NumSequences(), db.NumBlocks())

	queries, err := blast.ReadFASTAFile(*queryPath)
	if err != nil {
		return fmt.Errorf("reading queries: %w", err)
	}

	// The profile window covers only the search phase, not database
	// construction or output formatting.
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			retErr = err
		}
	}()

	var tracer *reqtrace.Tracer
	if *tracePath != "" {
		if tracer, err = reqtrace.NewTracerFile("mublastp", *tracePath); err != nil {
			return err
		}
		defer func() {
			if err := tracer.Close(); err != nil && retErr == nil {
				retErr = fmt.Errorf("trace: %w", err)
			}
		}()
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	start = time.Now()
	texts := make([]string, len(queries))
	for i := range queries {
		texts[i] = queries[i].Residues
	}
	searchCtx := ctx
	if *timeout > 0 {
		var cancel context.CancelFunc
		searchCtx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	br, err := db.SearchBatchCtx(searchCtx, texts)
	if err != nil {
		return fmt.Errorf("search: %w", err)
	}
	// The run is one trace tree: a "batch" root holding a query:<name> span,
	// with its six stage spans, per completed query.
	tr := tracer.Begin(reqtrace.Context{}, "batch", start.UnixNano())
	for i, res := range br.Results {
		if !br.Completed[i] {
			continue
		}
		if tr != nil {
			reqtrace.AttachQuerySpan(tr.RootSpan(), start.UnixNano(), queries[i].Name, res.StageSpans())
		}
		printResult(out, db, queries[i], res, *format)
	}
	done, elapsed := br.CompletedCount(), time.Since(start)
	for i, qerr := range br.QueryErrs {
		if qerr != nil {
			fmt.Fprintf(os.Stderr, "mublastp: query %s not completed: %v\n", queries[i].Name, qerr)
		}
	}
	fmt.Fprintf(os.Stderr, "mublastp: %d/%d queries searched in %v with muBLASTP\n",
		done, len(queries), elapsed.Round(time.Millisecond))
	// A degraded batch still falls through to the linger window below, so a
	// scraper can read the failure counters before the process exits non-zero.
	outcome := reqtrace.OutcomeOK
	if br.Err != nil {
		retErr = fmt.Errorf("search incomplete: %w", br.Err)
		outcome = reqtrace.OutcomeTimeout
	} else if done != len(queries) {
		retErr = fmt.Errorf("search: %d queries failed", len(queries)-done)
		outcome = reqtrace.OutcomeError
	}
	tr.RootSpan().End(elapsed.Nanoseconds())
	if err := tracer.Finish(tr, outcome); err != nil {
		return fmt.Errorf("trace: %w", err)
	}

	if *debugAddr != "" && *debugLinger > 0 {
		// Drain the buffered sinks before sleeping so anything scraping the
		// lingering process sees complete output.
		out.Flush()
		if err := tracer.Flush(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "mublastp: debug server lingering for %v\n", *debugLinger)
		select {
		case <-time.After(*debugLinger):
		case <-ctx.Done():
		}
	}
	return retErr
}

// badUsage reports a command-line mistake the way the flag package does:
// the message, the usage text, exit status 2.
func badUsage(msg string) {
	fmt.Fprintln(os.Stderr, "mublastp:", msg)
	flag.Usage()
	os.Exit(2)
}

// runVerify dispatches on what the -verifydb argument names: a
// comma-separated list verifies the files as a shard set (one fingerprint,
// exact round-robin fit — the invariants the scatter-gather merge trusts),
// an ingest-store directory runs the full store verification (manifest,
// every tier, WAL), and a single file keeps the original container check.
func runVerify(path string) error {
	if paths := strings.Split(path, ","); len(paths) > 1 {
		return runVerifySet(paths)
	}
	if blast.IsStoreDir(path) {
		return runVerifyStorePath(path)
	}
	info, err := blast.VerifyFile(path)
	if err != nil {
		return fmt.Errorf("verify %s: %w", path, err)
	}
	fp := info.Fingerprint
	fmt.Printf("%s: OK (container version %d)\n", path, info.Version)
	fmt.Printf("  matrix %s, word size %d, neighbor threshold %d\n",
		fp.Matrix, fp.WordSize, fp.NeighborThreshold)
	fmt.Printf("  %d sequences, %d residues, %d index blocks (%d residues/block)\n",
		info.NumSequences, info.TotalResidues, info.NumBlocks, fp.BlockResidues)
	if fp.SplitLongerThan > 0 {
		fmt.Printf("  long sequences split at %d residues (overlap %d): %d chunks\n",
			fp.SplitLongerThan, fp.SplitOverlap, info.NumChunks)
	} else {
		fmt.Printf("  long-sequence splitting disabled\n")
	}
	return nil
}

func runVerifySet(paths []string) error {
	replicas := make([][]string, len(paths))
	for i := range paths {
		paths[i] = strings.TrimSpace(paths[i])
		replicas[i] = paths[i : i+1]
	}
	set, err := blast.VerifyShardSet(replicas)
	if err != nil {
		return fmt.Errorf("verify shard set: %w", err)
	}
	fp := set.Fingerprint
	fmt.Printf("shard set: OK (%d shards, one build)\n", set.NumShards)
	fmt.Printf("  matrix %s, word size %d, neighbor threshold %d\n",
		fp.Matrix, fp.WordSize, fp.NeighborThreshold)
	fmt.Printf("  %d sequences, %d residues total; round-robin fit verified\n",
		set.TotalSequences, set.TotalResidues)
	for s, ci := range set.PerShard {
		fmt.Printf("  shard %d: %s — %d sequences, %d residues, %d blocks\n",
			s, paths[s], ci.NumSequences, ci.TotalResidues, ci.NumBlocks)
	}
	return nil
}

func runVerifyStorePath(dir string) error {
	info, err := blast.VerifyStore(dir)
	if err != nil {
		return fmt.Errorf("verify store %s: %w", dir, err)
	}
	fp := info.Fingerprint
	fmt.Printf("%s: OK (ingest store)\n", dir)
	fmt.Printf("  manifest seq %d (%s), %d delta container(s), %d pending WAL record(s)\n",
		info.ManifestSeq, info.ManifestHash, info.Deltas, info.PendingWAL)
	fmt.Printf("  matrix %s, word size %d, neighbor threshold %d\n",
		fp.Matrix, fp.WordSize, fp.NeighborThreshold)
	fmt.Printf("  %d sequences, %d residues, %d index blocks across all tiers\n",
		info.NumSequences, info.TotalResidues, info.NumBlocks)
	return nil
}

func printResult(out *bufio.Writer, db *blast.Database, q blast.Sequence, res *blast.Result, format string) {
	if format == "tabular" {
		fmt.Fprint(out, res.Tabular(q.Name))
		return
	}
	fmt.Fprintf(out, "Query: %s (%d residues) — %d hits\n", q.Name, res.QueryLen, len(res.Hits))
	if len(res.Hits) == 0 {
		fmt.Fprintln(out)
		return
	}
	fmt.Fprint(out, res.Summary())
	if format == "full" {
		fmt.Fprintln(out)
		for i := range res.Hits {
			fmt.Fprint(out, db.FormatHit(q.Residues, &res.Hits[i]))
		}
	}
	fmt.Fprintln(out)
}

// Command makedb builds the blocked database index from a FASTA file and
// saves it for reuse, the "build once, search many" workflow database-
// indexed BLAST exists for (paper Section III).
//
// With -shards N it instead writes N self-contained shard containers
// (<out>.shard<i>-of-<N>), the monolithic database dealt round-robin over
// its length-sorted order so every shard carries a balanced slice of the
// length distribution. The finished set is verified as a set
// (blast.VerifyShardSet): one fingerprint across all files and an exact
// round-robin fit, not just per-file checksums. It prints the commands that
// serve the set (a mublastpd per shard with the global totals, behind
// mublastpr -workers), byte-identical to serving the single -out container.
//
// Store mode manages a crash-safe ingest store (a directory holding a base
// container, ordered delta containers, a WAL, and an atomically-committed
// manifest) instead of a single file:
//
//	makedb -in db.fasta -store dbdir       initialise a store from FASTA
//	makedb -in new.fasta -append dbdir     append a batch as a delta (WAL-journaled)
//	makedb -compact dbdir                  merge base+deltas into a new base
//	makedb -recover dbdir                  replay/discard the WAL, GC orphans
//	makedb -verify-store dbdir             full offline verification report
//
// Append is durable on exit: the batch is WAL-journaled and fsynced before
// the delta is built, and the manifest rename is atomic, so a crash at any
// point leaves the store recoverable to exactly the pre- or post-append
// state (-recover, or any OpenStore, performs that recovery).
//
// Usage:
//
//	makedb -in db.fasta -out db.mublastp [-shards 4] [-block-residues 131072] [-threads 12]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/blast"
)

func main() {
	var (
		in          = flag.String("in", "", "input FASTA database (required for -out, -store, -append)")
		out         = flag.String("out", "", "output index path")
		shards      = flag.Int("shards", 1, "split into N shard containers named <out>.shard<i>-of-<N> (1 = single container)")
		blockRes    = flag.Int64("block-residues", 0, "index block size in residues, at least 1024 (0 = paper's L3 sizing rule)")
		threads     = flag.Int("threads", 0, "workers the index build uses, and the thread count the block sizing rule targets (0 = all cores)")
		matrixName  = flag.String("matrix", "BLOSUM62", "substitution matrix")
		storeDir    = flag.String("store", "", "initialise a crash-safe ingest store at this directory from -in")
		appendDir   = flag.String("append", "", "append the -in batch to the ingest store at this directory as a delta")
		compactDir  = flag.String("compact", "", "merge the store's base+deltas into a single new base container")
		recoverDir  = flag.String("recover", "", "run crash recovery on the store (replay/discard WAL, GC orphans) and exit")
		verifyStore = flag.String("verify-store", "", "verify the ingest store at this directory (manifest, containers, WAL) and exit")
	)
	flag.Parse()

	p := blast.DefaultParams()
	p.Matrix = *matrixName
	p.Threads = *threads
	p.BlockResidues = *blockRes

	modes := 0
	for _, m := range []string{*out, *storeDir, *appendDir, *compactDir, *recoverDir, *verifyStore} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "makedb: need exactly one of -out, -store, -append, -compact, -recover, -verify-store")
		flag.Usage()
		os.Exit(2)
	}

	switch {
	case *verifyStore != "":
		runVerifyStore(*verifyStore)
		return
	case *recoverDir != "":
		runRecover(*recoverDir, p)
		return
	case *compactDir != "":
		runCompact(*compactDir, p)
		return
	case *storeDir != "":
		runInitStore(*storeDir, *in, p)
		return
	case *appendDir != "":
		runAppend(*appendDir, *in, p)
		return
	}

	if *in == "" {
		fmt.Fprintln(os.Stderr, "makedb: -in is required with -out")
		flag.Usage()
		os.Exit(2)
	}
	if *shards < 1 {
		fatalf("-shards must be >= 1, got %d", *shards)
	}

	seqs, err := blast.ReadFASTAFile(*in)
	if err != nil {
		fatalf("reading %s: %v", *in, err)
	}

	start := time.Now()
	db, err := blast.NewDatabase(seqs, p)
	if err != nil {
		fatalf("building index: %v", err)
	}
	if *shards == 1 {
		if err := db.SaveFile(*out); err != nil {
			fatalf("saving %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr,
			"makedb: %d sequences, %d residues -> %d blocks, %.1f MB index in %v\n",
			db.NumSequences(), db.TotalResidues(), db.NumBlocks(),
			float64(db.IndexSizeBytes())/(1<<20), time.Since(start).Round(time.Millisecond))
		return
	}

	parts, err := db.Shards(*shards)
	if err != nil {
		fatalf("sharding: %v", err)
	}
	paths := make([]string, len(parts))
	replicas := make([][]string, len(parts))
	for s, sd := range parts {
		paths[s] = shardPath(*out, s, *shards)
		replicas[s] = paths[s : s+1]
		if err := sd.SaveFile(paths[s]); err != nil {
			fatalf("saving shard %d (%s): %v", s, paths[s], err)
		}
	}
	// Verify the finished files as a set: same build fingerprint everywhere
	// and an exact round-robin fit, the invariants the scatter-gather merge
	// silently trusts. Per-file checksums alone cannot catch a set mixing
	// two makedb runs.
	set, err := blast.VerifyShardSet(replicas)
	if err != nil {
		fatalf("verifying shard set: %v", err)
	}
	for s, ci := range set.PerShard {
		fmt.Fprintf(os.Stderr, "makedb: shard %d/%d -> %s: %d sequences, %d residues, %d blocks\n",
			s, *shards, paths[s], ci.NumSequences, ci.TotalResidues, ci.NumBlocks)
	}
	fmt.Fprintf(os.Stderr, "makedb: %d shards verified as a set: %d sequences, %d residues total in %v; serve them with\n",
		*shards, set.TotalSequences, set.TotalResidues, time.Since(start).Round(time.Millisecond))
	workers := "mublastpr -workers "
	for s, path := range paths {
		fmt.Fprintf(os.Stderr, "mublastpd -db %s -addr <host%d:port> -global-sequences %d -global-residues %d\n", path, s, set.TotalSequences, set.TotalResidues)
		workers += fmt.Sprintf("http://<host%d:port>,", s)
	}
	fmt.Fprintln(os.Stderr, workers[:len(workers)-1])
}

func runInitStore(dir, in string, p blast.Params) {
	if in == "" {
		fatalf("-store needs -in")
	}
	seqs, err := blast.ReadFASTAFile(in)
	if err != nil {
		fatalf("reading %s: %v", in, err)
	}
	start := time.Now()
	st, err := blast.InitStore(dir, seqs, p)
	if err != nil {
		fatalf("initialising store %s: %v", dir, err)
	}
	fmt.Fprintf(os.Stderr, "makedb: store %s initialised: manifest seq %d (%s), %d sequences in %v\n",
		dir, st.ManifestSeq(), st.ManifestHash(), st.NumSequences(), time.Since(start).Round(time.Millisecond))
}

func runAppend(dir, in string, p blast.Params) {
	if in == "" {
		fatalf("-append needs -in")
	}
	batch, err := blast.ReadFASTAFile(in)
	if err != nil {
		fatalf("reading %s: %v", in, err)
	}
	st, err := blast.OpenStore(dir, p)
	if err != nil {
		fatalf("opening store %s: %v", dir, err)
	}
	start := time.Now()
	stats, err := st.Append(batch)
	if err != nil {
		fatalf("appending to %s: %v", dir, err)
	}
	fmt.Fprintf(os.Stderr, "makedb: appended %d sequences to %s as %s in %v: manifest seq %d, %d deltas (WAL seq %d)\n",
		stats.Sequences, dir, stats.DeltaFile, time.Since(start).Round(time.Millisecond),
		stats.ManifestSeq, stats.Deltas, stats.WALSeq)
}

func runCompact(dir string, p blast.Params) {
	st, err := blast.OpenStore(dir, p)
	if err != nil {
		fatalf("opening store %s: %v", dir, err)
	}
	deltas := st.NumDeltas()
	start := time.Now()
	if err := st.Compact(); err != nil {
		fatalf("compacting %s: %v", dir, err)
	}
	fmt.Fprintf(os.Stderr, "makedb: compacted %s: %d deltas merged into a new base in %v (manifest seq %d, %d sequences)\n",
		dir, deltas, time.Since(start).Round(time.Millisecond), st.ManifestSeq(), st.NumSequences())
}

func runRecover(dir string, p blast.Params) {
	// OpenStore is the recovery procedure: replay durable WAL records into a
	// delta, discard torn tails, GC orphans. Running it explicitly lets an
	// operator repair a store before pointing a daemon at it.
	st, err := blast.OpenStore(dir, p)
	if err != nil {
		fatalf("recovering store %s: %v", dir, err)
	}
	info, err := blast.VerifyStore(dir)
	if err != nil {
		fatalf("store %s recovered but failed verification: %v", dir, err)
	}
	fmt.Fprintf(os.Stderr, "makedb: store %s recovered: manifest seq %d (%s), %d sequences, %d deltas, %d pending WAL records\n",
		dir, st.ManifestSeq(), st.ManifestHash(), info.NumSequences, info.Deltas, info.PendingWAL)
}

func runVerifyStore(dir string) {
	info, err := blast.VerifyStore(dir)
	if err != nil {
		fatalf("verifying store %s: %v", dir, err)
	}
	fp := info.Fingerprint
	fmt.Printf("%s: OK (ingest store)\n", dir)
	fmt.Printf("  manifest seq %d (%s), %d delta container(s)\n", info.ManifestSeq, info.ManifestHash, info.Deltas)
	fmt.Printf("  matrix %s, word size %d, neighbor threshold %d\n", fp.Matrix, fp.WordSize, fp.NeighborThreshold)
	fmt.Printf("  %d sequences, %d residues, %d index blocks across all tiers\n",
		info.NumSequences, info.TotalResidues, info.NumBlocks)
	if info.PendingWAL > 0 {
		fmt.Printf("  %d durable WAL record(s) awaiting replay (run -recover or open the store)\n", info.PendingWAL)
	}
}

// shardPath names shard s of n for an -out base path.
func shardPath(out string, s, n int) string {
	return fmt.Sprintf("%s.shard%d-of-%d", out, s, n)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "makedb: "+format+"\n", args...)
	os.Exit(1)
}

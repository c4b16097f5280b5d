package blast

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/seqgen"
)

// storeParams enables long-sequence splitting at a low threshold so the
// store tests exercise the chunk-origin plumbing through deltas and merges,
// not just whole sequences.
func storeParams() Params {
	p := DefaultParams()
	p.BlockResidues = 8192
	p.SplitLongerThan = 400
	p.SplitOverlap = 64
	return p
}

// storeSeqs generates n named sequences; the name prefix keeps base and
// delta batches disjoint the way real ingestion feeds are.
func storeSeqs(n int, seed int64, prefix string) []Sequence {
	g := seqgen.New(seqgen.UniprotProfile(), seed)
	raw := g.Database(n)
	seqs := make([]Sequence, len(raw))
	for i, s := range raw {
		seqs[i] = Sequence{Name: prefix + strconv.Itoa(i), Residues: alphabet.String(s)}
	}
	return seqs
}

// storeFixture builds a store with a base and two committed delta batches,
// each holding at least one sequence long enough to split.
func storeFixture(t *testing.T) (dir string, st *Store, base, b1, b2 []Sequence) {
	t.Helper()
	base = storeSeqs(60, 41, "base")
	base = append(base, Sequence{Name: "baselong", Residues: strings.Repeat(base[0].Residues, 3)})
	b1 = storeSeqs(12, 42, "d1x")
	b1 = append(b1, Sequence{Name: "d1long", Residues: strings.Repeat(b1[0].Residues, 3)})
	b2 = storeSeqs(9, 43, "d2x")

	dir = t.TempDir()
	var err error
	if st, err = InitStore(dir, base, storeParams()); err != nil {
		t.Fatal(err)
	}
	for i, batch := range [][]Sequence{b1, b2} {
		stats, err := st.Append(batch)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if stats.Sequences != len(batch) || stats.Deltas != i+1 {
			t.Fatalf("append %d: stats %+v", i, stats)
		}
	}
	return dir, st, base, b1, b2
}

// storeQueries hits both the base and the deltas, including a split chunk.
func storeQueries(base, b1, b2 []Sequence) []string {
	qs := []string{
		queryFrom(base, 150),
		queryFrom(b1, 120),
		b2[0].Residues,
		base[len(base)-1].Residues[100:300], // inside the long (split) base sequence
	}
	if len(b1) > 0 {
		qs = append(qs, b1[len(b1)-1].Residues[50:250]) // inside the long delta sequence
	}
	return qs
}

// assertSameSearch runs the byte-identity oracle (assertSameAsMonolithic)
// over two databases' answers to one batch, want being the reference.
func assertSameSearch(t *testing.T, label string, got, want *Database, queries []string) {
	t.Helper()
	w := searchCtx(t, want, queries)
	assertSameAsMonolithic(t, label, searchCtx(t, got, queries), w)
	if countHits(w) == 0 {
		t.Fatalf("%s: reference search found nothing; the equivalence check would be vacuous", label)
	}
}

func concat(batches ...[]Sequence) []Sequence {
	var all []Sequence
	for _, b := range batches {
		all = append(all, b...)
	}
	return all
}

// TestStoreTieredMatchesRebuild is the tentpole invariant: a base plus
// deltas searched as one tiered database must be byte-identical to a
// from-scratch rebuild over the concatenated input — same global id space,
// same E-values, same rendered output.
func TestStoreTieredMatchesRebuild(t *testing.T) {
	dir, st, base, b1, b2 := storeFixture(t)
	if st.ManifestSeq() != 3 || st.NumDeltas() != 2 {
		t.Fatalf("manifest seq %d deltas %d, want 3/2", st.ManifestSeq(), st.NumDeltas())
	}
	all := concat(base, b1, b2)

	db, err := st.Database()
	if err != nil {
		t.Fatal(err)
	}
	if !db.Tiered() {
		t.Fatal("store with deltas produced an untiered database")
	}
	seq, hash, deltas := db.Manifest()
	if seq != 3 || deltas != 2 || hash == "" {
		t.Fatalf("Manifest() = (%d, %q, %d), want (3, non-empty, 2)", seq, hash, deltas)
	}
	rebuild, err := NewDatabase(all, storeParams())
	if err != nil {
		t.Fatal(err)
	}
	// NumSequences counts post-split chunks, exactly like the rebuild's.
	if db.NumSequences() != rebuild.NumSequences() ||
		db.TotalResidues() != rebuild.TotalResidues() {
		t.Fatalf("tiered totals %d/%d, rebuild %d/%d",
			db.NumSequences(), db.TotalResidues(), rebuild.NumSequences(), rebuild.TotalResidues())
	}
	if st.NumSequences() != rebuild.NumSequences() {
		t.Fatalf("store counts %d sequences, rebuild has %d", st.NumSequences(), rebuild.NumSequences())
	}
	assertSameSearch(t, "tiered", db, rebuild, storeQueries(base, b1, b2))

	// Reopen from disk: recovery with nothing to recover must reproduce the
	// same state, and Open must route the directory through the store path.
	st2, err := OpenStore(dir, storeParams())
	if err != nil {
		t.Fatal(err)
	}
	if st2.ManifestSeq() != 3 || st2.NumDeltas() != 2 {
		t.Fatalf("reopened manifest seq %d deltas %d", st2.ManifestSeq(), st2.NumDeltas())
	}
	db2, err := Open(dir, storeParams())
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, "reopened", db2, rebuild, storeQueries(base, b1, b2))
}

// TestStoreVerify covers VerifyStore on a healthy store and the refusal
// paths VerifyStore and OpenStore share: flipped container bytes, a missing
// delta, a corrupt manifest, a manifest whose totals disagree with the
// container they name, and a directory that is not a store at all.
func TestStoreVerify(t *testing.T) {
	dir, st, base, _, _ := storeFixture(t)

	info, err := VerifyStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumSequences != st.NumSequences() || info.Deltas != 2 || info.PendingWAL != 0 ||
		info.ManifestSeq != st.ManifestSeq() || info.ManifestHash != st.ManifestHash() {
		t.Fatalf("VerifyStore info %+v", info)
	}
	if !IsStoreDir(dir) {
		t.Fatal("IsStoreDir(store) = false")
	}

	// A plain directory is not a store: typed refusal, not a guess.
	if _, err := VerifyStore(t.TempDir()); !errors.Is(err, ErrNoStore) {
		t.Fatalf("VerifyStore(empty dir) = %v, want ErrNoStore", err)
	}
	if _, err := Open(t.TempDir(), storeParams()); !errors.Is(err, ErrNoStore) {
		t.Fatalf("Open(empty dir) = %v, want ErrNoStore", err)
	}

	corrupt := func(name string, mutate func(path string)) {
		t.Helper()
		path := filepath.Join(dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mutate(path)
		if _, err := VerifyStore(dir); !errors.Is(err, ErrStoreCorrupt) {
			t.Fatalf("VerifyStore after corrupting %s = %v, want ErrStoreCorrupt", name, err)
		}
		if _, err := OpenStore(dir, storeParams()); !errors.Is(err, ErrStoreCorrupt) {
			t.Fatalf("OpenStore after corrupting %s = %v, want ErrStoreCorrupt", name, err)
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyStore(dir); err != nil {
			t.Fatalf("VerifyStore after restoring %s: %v", name, err)
		}
	}
	flip := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt("base-000001.mublastp", flip)
	corrupt("delta-000002.mublastp", flip)
	corrupt(manifestName, flip)
	corrupt("delta-000003.mublastp", func(path string) { os.Remove(path) })
	// A manifest that passes its own checksum but miscounts a container it
	// names: the store would compute every E-value against the wrong
	// search space.
	corrupt(manifestName, func(path string) {
		man, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		man.Deltas[0].Sequences++
		data, err := man.encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})

	// InitStore must refuse to clobber an existing store.
	if _, err := InitStore(dir, base, storeParams()); err == nil {
		t.Fatal("InitStore overwrote an existing store")
	}
}

// TestStoreCompact pins compaction: results before, after, and from a
// from-scratch rebuild are all byte-identical; the merged store has no
// deltas; superseded files are garbage-collected.
func TestStoreCompact(t *testing.T) {
	dir, st, base, b1, b2 := storeFixture(t)
	all := concat(base, b1, b2)
	queries := storeQueries(base, b1, b2)
	rebuild, err := NewDatabase(all, storeParams())
	if err != nil {
		t.Fatal(err)
	}

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.NumDeltas() != 0 {
		t.Fatalf("compacted store still has %d deltas", st.NumDeltas())
	}
	if st.ManifestSeq() != 4 {
		t.Fatalf("compacted manifest seq %d, want 4", st.ManifestSeq())
	}
	db, err := st.Database()
	if err != nil {
		t.Fatal(err)
	}
	if db.Tiered() {
		t.Fatal("compacted store produced a tiered database")
	}
	assertSameSearch(t, "compacted", db, rebuild, queries)
	if _, err := VerifyStore(dir); err != nil {
		t.Fatal(err)
	}

	// The old base and both deltas must be gone: one container file left.
	matches, err := filepath.Glob(filepath.Join(dir, "*"+storeContainerSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || filepath.Base(matches[0]) != "base-000004.mublastp" {
		t.Fatalf("after compaction, container files = %v", matches)
	}

	// Compacting a delta-free store is a no-op.
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.ManifestSeq() != 4 {
		t.Fatalf("no-op compaction bumped manifest to %d", st.ManifestSeq())
	}

	// And the compacted store keeps ingesting.
	b3 := storeSeqs(5, 44, "d3x")
	if _, err := st.Append(b3); err != nil {
		t.Fatal(err)
	}
	db2, err := st.Database()
	if err != nil {
		t.Fatal(err)
	}
	rebuild2, err := NewDatabase(concat(all, b3), storeParams())
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, "post-compact append", db2, rebuild2, append(queries, b3[0].Residues))
}

// TestStoreWALRollForward crafts a durable WAL record past the manifest
// watermark — the state a crash between WAL fsync and manifest commit
// leaves — and checks recovery replays it into a delta whose search output
// matches a rebuild that includes the batch.
func TestStoreWALRollForward(t *testing.T) {
	base := storeSeqs(30, 51, "base")
	batch := storeSeqs(6, 52, "wal")
	dir := t.TempDir()
	st, err := InitStore(dir, base, storeParams())
	if err != nil {
		t.Fatal(err)
	}
	// Write the WAL record by hand; the store believes WALApplied == 0.
	if err := appendWAL(filepath.Join(dir, walName), 1, encodeWALPayload(batch)); err != nil {
		t.Fatal(err)
	}
	if info, err := VerifyStore(dir); err != nil || info.PendingWAL != 1 {
		t.Fatalf("VerifyStore = %+v, %v; want 1 pending record", info, err)
	}
	st, err = OpenStore(dir, storeParams())
	if err != nil {
		t.Fatal(err)
	}
	rebuild, err := NewDatabase(concat(base, batch), storeParams())
	if err != nil {
		t.Fatal(err)
	}
	if st.NumDeltas() != 1 || st.NumSequences() != rebuild.NumSequences() {
		t.Fatalf("after roll-forward: %d deltas, %d sequences (want 1, %d)",
			st.NumDeltas(), st.NumSequences(), rebuild.NumSequences())
	}
	db, err := st.Database()
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, "roll-forward", db, rebuild,
		[]string{queryFrom(base, 120), batch[0].Residues})
	// WAL replay is idempotent: the WAL was reset, nothing pending.
	if info, err := VerifyStore(dir); err != nil || info.PendingWAL != 0 {
		t.Fatalf("after recovery VerifyStore = %+v, %v", info, err)
	}
}

// TestStoreWALTornTail pins the other half of the commit protocol: a torn
// final record (the crash-during-write state) is discarded, recovering the
// pre-commit state, while an intact record with an impossible sequence
// number is corruption, not a tail.
func TestStoreWALTornTail(t *testing.T) {
	base := storeSeqs(25, 61, "base")
	batch := storeSeqs(5, 62, "wal")
	dir := t.TempDir()
	if _, err := InitStore(dir, base, storeParams()); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	if err := appendWAL(walPath, 1, encodeWALPayload(batch)); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: drop the last few bytes of the record.
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, storeParams())
	if err != nil {
		t.Fatalf("recovery from torn tail: %v", err)
	}
	if st.NumDeltas() != 0 || st.ManifestSeq() != 1 {
		t.Fatalf("torn tail not discarded: %d deltas, manifest seq %d", st.NumDeltas(), st.ManifestSeq())
	}
	// The discarded tail must have been truncated away, and the store must
	// accept the batch again cleanly.
	if _, err := st.Append(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyStore(dir); err != nil {
		t.Fatal(err)
	}

	// An intact record whose seq skips ahead of the watermark cannot be
	// explained by any crash of this protocol: typed corruption, refused
	// before the replayable record ahead of it is applied.
	for _, seq := range []uint64{2, 7} {
		if err := appendWAL(walPath, seq, encodeWALPayload(batch)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenStore(dir, storeParams()); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("OpenStore with gapped WAL seq = %v, want ErrStoreCorrupt", err)
	}
	if man, err := readManifest(dir); err != nil || man.Seq != 2 || len(man.Deltas) != 1 {
		t.Fatalf("refused recovery wrote to the store: manifest %+v, %v; want seq 2 with 1 delta", man, err)
	}
	if _, err := VerifyStore(dir); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("VerifyStore with gapped WAL seq = %v, want ErrStoreCorrupt", err)
	}
}

// TestStoreGCOrphans: recovery removes files a crash orphaned — temp files
// and containers no manifest references — and leaves foreign files alone.
func TestStoreGCOrphans(t *testing.T) {
	dir, _, _, _, _ := storeFixture(t)
	orphans := []string{"delta-009999.mublastp", "base-000777.mublastp", "MANIFEST.1234.tmp"}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	foreign := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(foreign, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, storeParams()); err != nil {
		t.Fatal(err)
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived recovery (err=%v)", name, err)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign file removed by GC: %v", err)
	}
}

// TestStoreValidateBatch: ingestion refuses what replay could not later
// reproduce — empty batches, unnamed sequences, unencodable residues —
// before anything touches the WAL.
func TestStoreValidateBatch(t *testing.T) {
	dir := t.TempDir()
	st, err := InitStore(dir, storeSeqs(10, 71, "base"), storeParams())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		batch []Sequence
	}{
		{"empty batch", nil},
		{"unnamed sequence", []Sequence{{Name: "", Residues: "MKTAYIAK"}}},
		{"empty residues", []Sequence{{Name: "x", Residues: ""}}},
		{"unencodable residues", []Sequence{{Name: "x", Residues: "MKT4YIAK"}}},
	}
	for _, tc := range cases {
		if _, err := st.Append(tc.batch); err == nil {
			t.Errorf("%s: Append accepted it", tc.name)
		}
	}
	// Nothing durable happened: no WAL, manifest untouched, store usable.
	if info, err := VerifyStore(dir); err != nil || info.ManifestSeq != 1 || info.PendingWAL != 0 {
		t.Fatalf("after rejected batches VerifyStore = %+v, %v", info, err)
	}
	if _, err := st.Append(storeSeqs(3, 72, "ok")); err != nil {
		t.Fatal(err)
	}
}

// TestStoreTieredRefusals: Save and Shards refuse tiered databases with
// instructions to compact.
func TestStoreTieredRefusals(t *testing.T) {
	_, st, _, _, _ := storeFixture(t)
	db, err := st.Database()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(nopWriter{}); err == nil || !strings.Contains(err.Error(), "compact") {
		t.Fatalf("tiered Save = %v, want compact-the-store error", err)
	}
	if _, err := db.Shards(2); err == nil || !strings.Contains(err.Error(), "compact") {
		t.Fatalf("tiered Shards = %v, want compact-the-store error", err)
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestStoreTieredShardWire runs the tiered database as a store-backed shard
// through the detached wire path — shard search, Wire, Import, merge — and
// checks the output is byte-identical to the monolithic rebuild. This is
// the path a mublastpd serving an ingest store exercises under a router.
func TestStoreTieredShardWire(t *testing.T) {
	_, st, base, b1, b2 := storeFixture(t)
	db, err := st.Database()
	if err != nil {
		t.Fatal(err)
	}
	rebuild, err := NewDatabase(concat(base, b1, b2), storeParams())
	if err != nil {
		t.Fatal(err)
	}
	queries := storeQueries(base, b1, b2)
	mono := searchCtx(t, rebuild, queries)
	assertSameAsMonolithic(t, "shard path", mergedShards(t, []*Database{db}, queries, false), mono)
	assertSameAsMonolithic(t, "shard path over the wire", mergedShards(t, []*Database{db}, queries, true), mono)
}

// FuzzTieredEquivalence drives the tiered-search invariant with fuzzed
// queries: for any valid query, base+deltas must equal the from-scratch
// rebuild exactly, down to the rendered output.
func FuzzTieredEquivalence(f *testing.F) {
	base := storeSeqs(30, 91, "base")
	b1 := storeSeqs(8, 92, "d1x")
	b2 := storeSeqs(6, 93, "d2x")
	dir := f.TempDir()
	st, err := InitStore(dir, base, storeParams())
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range [][]Sequence{b1, b2} {
		if _, err := st.Append(b); err != nil {
			f.Fatal(err)
		}
	}
	tiered, err := st.Database()
	if err != nil {
		f.Fatal(err)
	}
	rebuild, err := NewDatabase(concat(base, b1, b2), storeParams())
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(b1[3].Residues))
	f.Add([]byte(base[0].Residues[:40]))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	const letters = "ACDEFGHIKLMNPQRSTVWY"
	f.Fuzz(func(t *testing.T, qRaw []byte) {
		if len(qRaw) < 8 {
			return
		}
		if len(qRaw) > 400 {
			qRaw = qRaw[:400]
		}
		q := make([]byte, len(qRaw))
		for i, b := range qRaw {
			q[i] = letters[int(b)%len(letters)]
		}
		queries := []string{string(q)}
		assertSameAsMonolithic(t, "tiered", searchCtx(t, tiered, queries), searchCtx(t, rebuild, queries))
	})
}

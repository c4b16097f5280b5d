package blast

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/alphabet"
	"repro/internal/dbase"
)

// Store is a crash-safe, incrementally growable database on disk: one
// directory holding an immutable base container, zero or more immutable
// delta containers, the manifest naming the current set, and the ingestion
// WAL. All mutation goes through Append/Compact under the store's lock;
// every commit is WAL-then-delta-then-manifest with fsyncs at each boundary,
// so a crash anywhere leaves a state OpenStore recovers to exactly the pre-
// or post-commit database — never a torn hybrid. A Store is a single-writer
// object: exactly one process (and within it, one Store value) may own a
// directory at a time.
type Store struct {
	dir string
	p   Params

	mu  sync.Mutex
	man *manifest
	// held is every container the manifest references, indexed, by file
	// name. Each enters once — as the Database its commit built, once the
	// bytes made durable decode to that Database's sequences, or decoded from
	// its file and indexed when the store is opened — and leaves when the
	// manifest stops referencing it (gc). Views share the containers and
	// never write them, so a view taken before an Append or a Compact keeps
	// its own alive and unchanged for as long as it is held.
	held map[string]*container
	// broken latches after a failed commit: the on-disk state is whatever
	// the failure left (recoverable, by construction), but the in-memory
	// view can no longer be trusted to extend it — a retried Append could
	// re-log an already-durable WAL seq. Reopening runs recovery and
	// produces a clean Store, exactly as a crashed process would.
	broken bool
}

const (
	storeContainerSuffix = ".mublastp"
	storeBasePrefix      = "base-"
	storeDeltaPrefix     = "delta-"
)

func baseFileName(seq int64) string {
	return fmt.Sprintf("%s%06d%s", storeBasePrefix, seq, storeContainerSuffix)
}

func deltaFileName(seq int64) string {
	return fmt.Sprintf("%s%06d%s", storeDeltaPrefix, seq, storeContainerSuffix)
}

// AppendStats reports what one Append committed.
type AppendStats struct {
	ManifestSeq int64  // manifest commit seq after the append
	WALSeq      uint64 // WAL record seq the batch was logged as
	DeltaFile   string // file name of the new delta container
	Sequences   int    // sequences in the batch
	Deltas      int    // delta containers now outstanding
}

// StoreInfo is what VerifyStore reports about a fully validated store.
type StoreInfo struct {
	ManifestSeq   int64
	ManifestHash  string
	Deltas        int
	PendingWAL    int // durably logged batches not yet reflected in the manifest
	Fingerprint   Fingerprint
	NumSequences  int
	TotalResidues int64
	NumBlocks     int
}

// validateBatch rejects an ingestion batch before it reaches the WAL: every
// sequence must carry a name (tiered naming must match what a rebuild over
// explicitly named input produces) and encodable residues (replay must never
// fail on a durably logged record).
func validateBatch(batch []Sequence) error {
	if len(batch) == 0 {
		return errors.New("blast: empty ingestion batch")
	}
	if len(batch) > maxWALBatch {
		return fmt.Errorf("blast: ingestion batch of %d sequences exceeds cap %d", len(batch), maxWALBatch)
	}
	for i, s := range batch {
		if s.Name == "" {
			return fmt.Errorf("blast: ingestion batch sequence %d has no name", i)
		}
		if len(s.Residues) == 0 {
			return fmt.Errorf("blast: ingestion batch sequence %q is empty", s.Name)
		}
		if _, err := alphabet.Encode([]byte(s.Residues)); err != nil {
			return fmt.Errorf("blast: ingestion batch sequence %q: %w", s.Name, err)
		}
	}
	return nil
}

// InitStore creates a new ingest store at dir from an initial sequence set:
// the base container is built with p, written atomically, and committed as
// manifest seq 1. dir is created if missing; it must not already hold a
// store.
func InitStore(dir string, seqs []Sequence, p Params) (*Store, error) {
	if err := validateBatch(seqs); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blast: creating store dir: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("blast: %s already holds an ingest store (append to it instead)", dir)
	}
	db, err := NewDatabase(seqs, p)
	if err != nil {
		return nil, err
	}
	name := baseFileName(1)
	c, entry, err := writeContainer(dir, name, db)
	if err != nil {
		return nil, err
	}
	man := &manifest{Version: manifestVersion, Seq: 1, Base: entry}
	if err := commitManifest(dir, man); err != nil {
		return nil, err
	}
	return &Store{dir: dir, p: p, man: man, held: map[string]*container{name: c}}, nil
}

// writeContainer serializes db into a buffer of its exact size, commits the
// bytes atomically as dir/name (exercising the delta-boundary fault sites),
// decodes those very bytes as their verification, and returns the manifest
// entry that proves them with the container as the store holds it: db's own
// sequences, index and origins, once the decoded ones are shown to equal
// them, so that the store holds one copy of each and builds nothing twice.
func writeContainer(dir, name string, db *Database) (*container, manifestEntry, error) {
	secs, err := db.sections()
	if err != nil {
		return nil, manifestEntry{}, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, containerSize(secs)))
	if err := writeSections(buf, secs); err != nil {
		return nil, manifestEntry{}, err
	}
	data := buf.Bytes()
	if err := atomicWrite(dir, name, data, fiDeltaWrite, fiDeltaSync, fiDeltaRename); err != nil {
		return nil, manifestEntry{}, fmt.Errorf("blast: committing %s: %w", name, err)
	}
	c, err := loadContainer(bytes.NewReader(data))
	if err == nil {
		err = c.holds(db.parts[0])
	}
	if err != nil {
		return nil, manifestEntry{}, fmt.Errorf("blast: %s failed verification: %w", name, err)
	}
	return c, newEntry(name, data, c), nil
}

// holds checks that the container decoded the sequences (count, order, names
// and residues) and split origins of p, and then takes p's own in their place,
// with p's index.
func (c *container) holds(p *part) error {
	if len(c.db.Seqs) != len(p.db.Seqs) {
		return corruptf("decoded %d sequences, the database holds %d", len(c.db.Seqs), len(p.db.Seqs))
	}
	for i := range p.db.Seqs {
		got, want := &c.db.Seqs[i], &p.db.Seqs[i]
		if got.Name != want.Name || !bytes.Equal(got.Data, want.Data) {
			return corruptf("decoded sequence %d (%q) differs from the database's (%q)", i, got.Name, want.Name)
		}
	}
	if !maps.Equal(c.origins, p.chunkOrigin) {
		return corruptf("decoded %d split origins differ from the database's %d", len(c.origins), len(p.chunkOrigin))
	}
	c.db, c.ix, c.origins = p.db, p.ix, p.chunkOrigin
	return nil
}

// OpenStore opens the store at dir, running full crash recovery first:
// validate the manifest, read every container it references once (checked
// against its manifest entry), decode it and index it for the store to hold
// (on p.Threads workers), replay durably logged WAL batches the manifest does
// not yet reflect (rolling the crash forward to its post-commit state),
// discard torn WAL tails (rolling back to the pre-commit state), and
// garbage-collect orphaned files from interrupted commits. Ambiguous damage — a manifest that fails its
// checksum, a referenced container missing, altered or holding other totals
// than its manifest entry, intact WAL records that contradict the watermark —
// is refused with ErrStoreCorrupt rather than guessed around, and before
// recovery writes anything.
//
// p plays the same role as in Load: it must be compatible with the base
// container's build fingerprint. Set p.GlobalDB* only when this store is one
// shard of a larger logical database.
func OpenStore(dir string, p Params) (*Store, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	st := &Store{dir: dir, p: p, man: man, held: make(map[string]*container, 1+len(man.Deltas))}
	for _, e := range man.entries() {
		data, err := readEntry(dir, e)
		if err != nil {
			return nil, err
		}
		c, err := loadContainer(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("blast: opening %s: %w", e.Name, err)
		}
		if c.db.NumSeqs() != e.Sequences || c.db.TotalResidues != e.Residues {
			return nil, fmt.Errorf("blast: %w: %s holds %d sequences/%d residues, manifest says %d/%d",
				ErrStoreCorrupt, e.Name, c.db.NumSeqs(), c.db.TotalResidues, e.Sequences, e.Residues)
		}
		if err := c.index(p.Threads); err != nil {
			return nil, fmt.Errorf("blast: opening %s: %w", e.Name, err)
		}
		st.held[e.Name] = c
	}

	// WAL replay: every intact record past the watermark was durably logged
	// by an Append whose commit did not land; delta construction is
	// deterministic, so applying it now yields the exact post-commit state.
	// The records are checked as a whole first, so an incoherent WAL is
	// refused before replay writes anything.
	recs, _, err := scanWAL(st.walPath())
	if err != nil {
		return nil, err
	}
	var pending []walRecord
	for _, rec := range recs {
		if rec.Seq <= man.WALApplied {
			continue // applied before the crash; the reset just didn't land
		}
		if want := man.WALApplied + uint64(len(pending)) + 1; rec.Seq != want {
			return nil, fmt.Errorf("blast: %w: wal record seq %d but manifest applied through %d",
				ErrStoreCorrupt, rec.Seq, want-1)
		}
		if err := validateBatch(rec.Batch); err != nil {
			return nil, fmt.Errorf("blast: %w: replaying wal record %d: %v", ErrStoreCorrupt, rec.Seq, err)
		}
		pending = append(pending, rec)
	}
	for _, rec := range pending {
		if err := st.applyBatch(rec.Seq, rec.Batch); err != nil {
			return nil, fmt.Errorf("blast: replaying wal record %d: %w", rec.Seq, err)
		}
	}
	if len(recs) > 0 {
		if err := resetWAL(st.walPath()); err != nil {
			return nil, err
		}
	} else if _, err := os.Stat(st.walPath()); err == nil {
		// A torn tail with no intact records still needs discarding.
		if err := resetWAL(st.walPath()); err != nil {
			return nil, err
		}
	}
	if err := st.gc(); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *Store) walPath() string { return filepath.Join(st.dir, walName) }

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

// ManifestSeq returns the current manifest commit sequence number.
func (st *Store) ManifestSeq() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.man.Seq
}

// ManifestHash returns the current manifest content hash.
func (st *Store) ManifestHash() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.man.hash()
}

// NumDeltas returns how many delta containers are outstanding.
func (st *Store) NumDeltas() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.man.Deltas)
}

// NumSequences returns the combined sequence count across base + deltas.
func (st *Store) NumSequences() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.man.sequences()
}

// gc drops the containers the current manifest no longer references, and
// removes files from interrupted commits: container files and temp files in
// the store directory that the manifest does not reference. Runs only after
// recovery or a commit has settled the manifest, so everything unreferenced
// is provably garbage.
func (st *Store) gc() error {
	referenced := map[string]bool{manifestName: true, walName: true}
	for _, e := range st.man.entries() {
		referenced[e.Name] = true
	}
	for name := range st.held {
		if !referenced[name] {
			delete(st.held, name)
		}
	}
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("blast: store gc: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || referenced[name] {
			continue
		}
		owned := strings.HasSuffix(name, ".tmp") ||
			((strings.HasPrefix(name, storeBasePrefix) || strings.HasPrefix(name, storeDeltaPrefix)) &&
				strings.HasSuffix(name, storeContainerSuffix))
		if !owned {
			continue // not ours; leave foreign files alone
		}
		if err := os.Remove(filepath.Join(st.dir, name)); err != nil {
			return fmt.Errorf("blast: store gc: %w", err)
		}
	}
	return nil
}

// deltaParams derives the build parameters for a delta container from the
// base fingerprint, so every tier carries the identical fingerprint and the
// combined view is indistinguishable from one build.
func (st *Store) deltaParams(fp Fingerprint) Params {
	p := st.p
	p.Matrix = fp.Matrix
	p.BlockResidues = fp.BlockResidues
	if fp.SplitLongerThan > 0 {
		p.SplitLongerThan, p.SplitOverlap = fp.SplitLongerThan, fp.SplitOverlap
	} else {
		p.SplitLongerThan, p.SplitOverlap = -1, 0
	}
	p.GlobalDBResidues, p.GlobalDBSequences = 0, 0
	return p
}

// applyBatch builds the delta container for one durably logged batch and
// commits the manifest that includes it. Called with st.mu held (or before
// the store is shared). Deterministic: replaying the same record after a
// crash produces byte-identical results.
func (st *Store) applyBatch(walSeq uint64, batch []Sequence) error {
	db, err := NewDatabase(batch, st.deltaParams(st.held[st.man.Base.Name].fp))
	if err != nil {
		return fmt.Errorf("blast: building delta: %w", err)
	}
	next := st.man.Seq + 1
	name := deltaFileName(next)
	c, entry, err := writeContainer(st.dir, name, db)
	if err != nil {
		return err
	}
	newMan := *st.man
	newMan.Seq = next
	newMan.Deltas = append(append([]manifestEntry{}, st.man.Deltas...), entry)
	newMan.WALApplied = walSeq
	if err := commitManifest(st.dir, &newMan); err != nil {
		return err
	}
	st.man = &newMan
	st.held[name] = c
	return nil
}

// brokenErr latches the store broken and returns the error every commit
// attempt gets from then on, wrapping ErrStoreBroken: cause is the failure
// that broke this commit, nil for a call that found the store already broken.
func (st *Store) brokenErr(cause error) error {
	st.broken = true
	if cause == nil {
		return fmt.Errorf("blast: store %s: %w", st.dir, ErrStoreBroken)
	}
	return fmt.Errorf("blast: store %s: %w: %w", st.dir, ErrStoreBroken, cause)
}

// Append ingests a batch of new sequences as one delta container. The batch
// is validated, made durable in the WAL (the commit point: from here a crash
// rolls forward), built into a delta with the base's build fingerprint,
// written atomically, and committed to the manifest. On success the new
// sequences are part of the store's database; Database() reflects them.
func (st *Store) Append(batch []Sequence) (*AppendStats, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := validateBatch(batch); err != nil {
		return nil, err
	}
	if st.broken {
		return nil, st.brokenErr(nil)
	}
	walSeq := st.man.WALApplied + 1
	if err := appendWAL(st.walPath(), walSeq, encodeWALPayload(batch)); err != nil {
		return nil, st.brokenErr(err)
	}
	if err := st.applyBatch(walSeq, batch); err != nil {
		return nil, st.brokenErr(err)
	}
	// Cleanup only: a failed (or crashed) reset leaves applied records that
	// the next open skips via the watermark and then truncates.
	_ = resetWAL(st.walPath())
	return &AppendStats{
		ManifestSeq: st.man.Seq,
		WALSeq:      walSeq,
		DeltaFile:   st.man.Deltas[len(st.man.Deltas)-1].Name,
		Sequences:   len(batch),
		Deltas:      len(st.man.Deltas),
	}, nil
}

// Database returns the store's current container set as one searchable
// database: the base's part followed by every delta's, each searched with the
// combined totals as its global search space (exactly the shard-statistics
// threading), tied together by the stable merge-order id maps. It decodes
// and indexes nothing: the parts are new engines and id maps over the
// containers the store already holds. With no deltas outstanding this is the
// base alone. The result is byte-identical to a from-scratch rebuild over the
// same sequences.
func (st *Store) Database() (*Database, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.databaseLocked()
}

func (st *Store) databaseLocked() (*Database, error) {
	p := st.p
	if len(st.man.Deltas) > 0 && p.GlobalDBResidues == 0 {
		// Every tier computes E-values against the combined search space.
		p.GlobalDBResidues = st.man.residues()
		p.GlobalDBSequences = int64(st.man.sequences())
	}
	entries := st.man.entries()
	cs := make([]*container, len(entries))
	for i, e := range entries {
		cs[i] = st.held[e.Name]
		if cs[i].fp != cs[0].fp {
			return nil, fmt.Errorf("blast: %w: delta %s fingerprint %+v diverges from base %+v",
				ErrStoreCorrupt, e.Name, cs[i].fp, cs[0].fp)
		}
	}
	d, err := openParts(p, cs)
	if err != nil {
		return nil, fmt.Errorf("blast: opening store %s: %w", st.dir, err)
	}
	d.manifestSeq = st.man.Seq
	d.manifestHash = st.man.hash()
	d.numDeltas = len(st.man.Deltas)
	return d, nil
}

// Manifest reports the ingest-store manifest this database was opened from:
// its commit sequence number, its content hash, and how many delta
// containers are layered on the base. All three are zero for a database that
// did not come from a store. Replicas serving one logical store must agree
// on the hash — the router's coherence handshake refuses mixed-manifest
// topologies.
func (d *Database) Manifest() (seq int64, hash string, deltas int) {
	return d.manifestSeq, d.manifestHash, d.numDeltas
}

// Compact merges the base and every outstanding delta into a single new base
// container and commits a manifest that references only it. The merged
// database preserves the combined (rebuild-global) sequence order, so search
// results are byte-identical before and after compaction. The new base is
// fully verified before the manifest swap; any failure leaves the old set
// serving. Old containers are garbage-collected after the commit.
func (st *Store) Compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.broken {
		return st.brokenErr(nil)
	}
	if len(st.man.Deltas) == 0 {
		return nil
	}
	// Merge the already-split, already-sorted tier sequences in combined
	// order. Splitting does not recur (every stored sequence is at most the
	// split threshold long) and chunk origins are carried over, so this is
	// the rebuild's database without re-running the rebuild.
	entries := st.man.entries()
	dbs := make([]*dbase.DB, len(entries))
	var origins map[string]chunkInfo
	for i, e := range entries {
		c := st.held[e.Name]
		dbs[i] = c.db
		for name, info := range c.origins {
			if origins == nil {
				origins = make(map[string]chunkInfo)
			}
			origins[name] = info
		}
	}
	merged := dbase.Merged(dbs, dbase.MergeOrder(dbs))
	fp := st.held[st.man.Base.Name].fp
	bp := st.deltaParams(fp)
	cfg, err := buildConfig(bp)
	if err != nil {
		return err
	}
	ix, err := buildIndex(merged, cfg.Neighbors, fp.BlockResidues, bp.Threads)
	if err != nil {
		return err
	}
	nd := newSingle(bp, cfg, merged, ix, origins, fp.SplitLongerThan, fp.SplitOverlap)

	// Verify-before-swap: the manifest only ever references proven bytes,
	// and the store keeps nd's sequences and index once the proof decoded
	// them.
	next := st.man.Seq + 1
	name := baseFileName(next)
	c, entry, err := writeContainer(st.dir, name, nd)
	if err != nil {
		return err
	}
	newMan := *st.man
	newMan.Seq = next
	newMan.Base = entry
	newMan.Deltas = nil
	if err := commitManifest(st.dir, &newMan); err != nil {
		// Whether the new manifest landed is unknown, so the in-memory one
		// can no longer be trusted to extend the directory.
		return st.brokenErr(err)
	}
	st.man = &newMan
	st.held[name] = c
	return st.gc()
}

// VerifyStore fully validates the store at dir without mutating it: the
// manifest (checksum, structure), every referenced container (size and CRC
// against its manifest entry, then the container's own full Verify pass,
// fingerprint coherence across tiers, totals against the manifest), and the
// WAL (intact records must sit coherently against the watermark). Torn WAL
// tails and orphaned files are reported implicitly via PendingWAL and are
// not errors — recovery handles them — so a store that passes VerifyStore
// plus OpenStore is exactly as trustworthy as a verified container.
func VerifyStore(dir string) (*StoreInfo, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	info := &StoreInfo{
		ManifestSeq:  man.Seq,
		ManifestHash: man.hash(),
		Deltas:       len(man.Deltas),
	}
	var baseFP Fingerprint
	for i, e := range man.entries() {
		data, err := readEntry(dir, e)
		if err != nil {
			return nil, err
		}
		ci, err := Verify(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("blast: store container %s: %w", e.Name, err)
		}
		if ci.NumSequences != e.Sequences || ci.TotalResidues != e.Residues {
			return nil, fmt.Errorf("blast: %w: %s holds %d sequences/%d residues, manifest says %d/%d",
				ErrStoreCorrupt, e.Name, ci.NumSequences, ci.TotalResidues, e.Sequences, e.Residues)
		}
		if i == 0 {
			baseFP = ci.Fingerprint
		} else if ci.Fingerprint != baseFP {
			return nil, fmt.Errorf("blast: %w: %s fingerprint diverges from base", ErrStoreCorrupt, e.Name)
		}
		info.NumSequences += ci.NumSequences
		info.TotalResidues += ci.TotalResidues
		info.NumBlocks += ci.NumBlocks
	}
	info.Fingerprint = baseFP
	recs, _, err := scanWAL(filepath.Join(dir, walName))
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if rec.Seq <= man.WALApplied {
			continue
		}
		if rec.Seq != man.WALApplied+uint64(info.PendingWAL)+1 {
			return nil, fmt.Errorf("blast: %w: wal record seq %d but manifest applied through %d",
				ErrStoreCorrupt, rec.Seq, man.WALApplied)
		}
		info.PendingWAL++
	}
	return info, nil
}

// IsStoreDir reports whether path is an ingest-store directory (holds a
// manifest), as opposed to a single-container file.
func IsStoreDir(path string) bool {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, manifestName))
	return err == nil
}

// Open opens the database at path with p: an ingest-store directory is
// opened with full crash recovery (WAL replay, torn-tail discard, orphan
// GC) and served as its base+deltas view; a file is loaded as a single
// container. The uniform entry point the session reload path uses.
func Open(path string, p Params) (*Database, error) {
	if IsStoreDir(path) {
		st, err := OpenStore(path, p)
		if err != nil {
			return nil, err
		}
		return st.Database()
	}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return nil, fmt.Errorf("blast: %w: %s", ErrNoStore, path)
	}
	return LoadFile(path, p)
}

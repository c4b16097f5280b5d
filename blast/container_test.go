package blast

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/dbindex"
	"repro/internal/neighbor"
	"repro/internal/seqgen"
)

// smallDatabase builds a compact database whose saved container is a few
// tens of KB, so exhaustive byte-flip sweeps stay fast.
func smallDatabase(t *testing.T, p Params) (*Database, []Sequence) {
	t.Helper()
	g := seqgen.New(seqgen.UniprotProfile(), 99)
	raw := g.Database(10)
	seqs := make([]Sequence, len(raw))
	for i, s := range raw {
		seqs[i] = Sequence{Name: nameFor(i), Residues: alphabet.String(s)}
	}
	db, err := NewDatabase(seqs, p)
	if err != nil {
		t.Fatal(err)
	}
	return db, seqs
}

func saved(t *testing.T, db *Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withThreshold returns db's single part under the neighbors of threshold T:
// the container a build with another T would write, which no Params of this
// build can ask for.
func withThreshold(db *Database, threshold int) *Database {
	cfg := *db.cfg
	cfg.Neighbors = neighbor.New(cfg.Matrix, threshold)
	p := db.parts[0]
	return newSingle(db.params, &cfg, p.db, p.ix, p.chunkOrigin, db.splitLen, db.splitOverlap)
}

func isTyped(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) || errors.Is(err, ErrParamsMismatch)
}

// TestByteFlipRobustness is the acceptance gate: flipping any single byte of
// a saved database must make Load return a typed error — never a panic, an
// OOM-scale allocation, or a silently different database.
func TestByteFlipRobustness(t *testing.T) {
	p := DefaultParams()
	p.BlockResidues = 4096
	db, _ := smallDatabase(t, p)
	art := saved(t, db)
	rng := rand.New(rand.NewSource(7))
	stride := 1
	if testing.Short() {
		stride = 13
	}
	for i := 0; i < len(art); i += stride {
		mut := append([]byte(nil), art...)
		mut[i] ^= byte(1 << rng.Intn(8))
		if _, err := Load(bytes.NewReader(mut), p); err == nil {
			t.Fatalf("flip at byte %d of %d loaded successfully", i, len(art))
		} else if !isTyped(err) {
			t.Fatalf("flip at byte %d: untyped error %v", i, err)
		}
	}
}

func TestTruncationRejected(t *testing.T) {
	p := DefaultParams()
	p.BlockResidues = 4096
	db, _ := smallDatabase(t, p)
	art := saved(t, db)
	for _, n := range []int{0, 1, len(containerMagic), len(containerMagic) + 1, len(art) / 3, len(art) / 2, len(art) - 1} {
		if _, err := Load(bytes.NewReader(art[:n]), p); !isTyped(err) {
			t.Errorf("truncation to %d bytes: got %v, want typed error", n, err)
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	p := DefaultParams()
	p.BlockResidues = 4096
	db, _ := smallDatabase(t, p)
	art := append(saved(t, db), 0x00)
	if _, err := Load(bytes.NewReader(art), p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("appended byte: got %v, want ErrCorrupt", err)
	}
}

func TestLegacyFormatRejected(t *testing.T) {
	// The pre-container format: an 8-byte little-endian section length
	// followed by the raw dbase stream ("MUDB1\n"...).
	payload := []byte("MUDB1\n\x00")
	legacy := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint64(legacy, uint64(len(payload)))
	legacy = append(legacy, payload...)
	if _, err := Load(bytes.NewReader(legacy), DefaultParams()); !errors.Is(err, ErrVersion) {
		t.Fatalf("legacy artifact: got %v, want ErrVersion", err)
	}
	if _, err := Load(bytes.NewReader([]byte("utter nonsense, quite long enough")), DefaultParams()); !errors.Is(err, ErrCorrupt) {
		t.Fatal("garbage accepted as container")
	}
	// Version 2 (packed index positions), version 3 (32-bit block
	// coordinates) and version 4 (a stored index of 16-bit positions): the
	// header alone decides, whatever follows it, and the error names the
	// remedy.
	db, _ := smallDatabase(t, DefaultParams())
	for _, v := range []uint16{2, 3, 4} {
		old := saved(t, db)
		binary.LittleEndian.PutUint16(old[len(containerMagic):], v)
		if _, err := Load(bytes.NewReader(old), DefaultParams()); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "makedb") {
			t.Fatalf("version-%d container: got %v, want ErrVersion naming makedb", v, err)
		}
	}
}

func TestLoadRejectsParamsMismatch(t *testing.T) {
	p := DefaultParams()
	p.BlockResidues = 4096
	db, _ := smallDatabase(t, p)
	art := saved(t, db)
	cases := []struct {
		name   string
		adjust func(*Params)
	}{
		{"matrix", func(p *Params) { p.Matrix = "BLOSUM50" }},
		{"block residues", func(p *Params) { p.BlockResidues = 8192 }},
		{"split threshold", func(p *Params) { p.SplitLongerThan = 2000 }},
		{"split disabled", func(p *Params) { p.SplitLongerThan = -1 }},
	}
	for _, tc := range cases {
		q := p
		tc.adjust(&q)
		if _, err := Load(bytes.NewReader(art), q); !errors.Is(err, ErrParamsMismatch) {
			t.Errorf("%s drift: got %v, want ErrParamsMismatch", tc.name, err)
		}
	}
	// The neighbor threshold is this build's T, not a Params field: a
	// container built with another is refused whatever the caller sets.
	other := saved(t, withThreshold(db, neighbor.DefaultThreshold+2))
	if _, err := Load(bytes.NewReader(other), p); !errors.Is(err, ErrParamsMismatch) ||
		!strings.Contains(err.Error(), "neighbor threshold 11, database built with 13") {
		t.Errorf("neighbor threshold drift: got %v, want ErrParamsMismatch naming both thresholds", err)
	}
	// Zero values mean "adopt the stored build parameters".
	q := p
	q.BlockResidues = 0
	loaded, err := Load(bytes.NewReader(art), q)
	if err != nil {
		t.Fatalf("auto block residues: %v", err)
	}
	if loaded.params.BlockResidues != 4096 {
		t.Errorf("adopted block residues = %d, want 4096", loaded.params.BlockResidues)
	}
	// Result-shaping parameters may differ freely: the index stores
	// exact-word positions, so cutoffs are not part of the fingerprint.
	q = p
	q.EValueCutoff, q.MaxResults = 1, 10
	if _, err := Load(bytes.NewReader(art), q); err != nil {
		t.Errorf("scoring-only drift rejected: %v", err)
	}
}

// TestSaveLoadByteIdenticalOutput pins the acceptance criterion that a
// Save→Load round trip yields byte-identical search output to the in-memory
// database, across multiple queries and the full rendered form.
func TestSaveLoadByteIdenticalOutput(t *testing.T) {
	p := DefaultParams()
	p.BlockResidues = 4096
	db, seqs := smallDatabase(t, p)
	loaded, err := Load(bytes.NewReader(saved(t, db)), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, minLen := range []int{60, 100, 140} {
		q := queryFrom(seqs, minLen)
		a, err := db.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := b.Tabular("q"), a.Tabular("q"); got != want {
			t.Fatalf("query %d: output differs after reload:\n--- in-memory ---\n%s--- reloaded ---\n%s", minLen, want, got)
		}
	}
}

// TestHashInNameNotMisclassified is the regression test for the old
// recoverChunkOrigins heuristic: a user sequence legitimately named with a
// "#<digits>" suffix must not be treated as a split chunk (which would
// rename it and shift its reported subject coordinates) after Save/Load.
func TestHashInNameNotMisclassified(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 55)
	resi := alphabet.String(g.Sequence(300))
	p := DefaultParams()
	p.BlockResidues = 4096
	db, err := NewDatabase([]Sequence{
		{Name: "sp|P123#2", Residues: resi},
		{Name: "plain", Residues: alphabet.String(g.Sequence(250))},
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(saved(t, db)), p)
	if err != nil {
		t.Fatal(err)
	}
	q := resi[40:200]
	before, err := db.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	after, err := loaded.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Hits) == 0 {
		t.Fatal("no hits for exact subsequence")
	}
	if got := before.Hits[0]; got.SubjectName != "sp|P123#2" || got.SubjectStart != 40 {
		t.Fatalf("in-memory hit misclassified: name %q start %d", got.SubjectName, got.SubjectStart)
	}
	if got := after.Hits[0]; got.SubjectName != "sp|P123#2" || got.SubjectStart != 40 {
		t.Fatalf("reloaded hit misclassified: name %q start %d (offset stolen from the #2 suffix?)", got.SubjectName, got.SubjectStart)
	}
	if len(before.Hits) != len(after.Hits) {
		t.Fatalf("hit count changed after reload: %d -> %d", len(before.Hits), len(after.Hits))
	}
}

func TestVerify(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 321)
	long := alphabet.String(g.Sequence(5000))
	p := DefaultParams()
	p.BlockResidues = 4096
	p.SplitLongerThan = 2000
	db, err := NewDatabase([]Sequence{
		{Name: "giant", Residues: long},
		{Name: "small", Residues: alphabet.String(g.Sequence(200))},
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	art := saved(t, db)
	info, err := Verify(bytes.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 5 {
		t.Errorf("Version = %d", info.Version)
	}
	fp := info.Fingerprint
	if fp.Matrix != "BLOSUM62" || fp.WordSize != 3 || fp.NeighborThreshold != 11 ||
		fp.BlockResidues != 4096 || fp.SplitLongerThan != 2000 || fp.SplitOverlap != 256 {
		t.Errorf("fingerprint = %+v", fp)
	}
	if info.NumSequences != db.NumSequences() || info.NumBlocks != db.NumBlocks() {
		t.Errorf("info %+v vs db %d seqs %d blocks", info, db.NumSequences(), db.NumBlocks())
	}
	if info.NumChunks < 2 {
		t.Errorf("NumChunks = %d, want the giant sequence's chunks", info.NumChunks)
	}
	mut := append([]byte(nil), art...)
	mut[len(mut)/2] ^= 0x10
	if _, err := Verify(bytes.NewReader(mut)); !isTyped(err) {
		t.Errorf("Verify of corrupted container: %v", err)
	}
}

// TestZeroLengthRecords pins the end-to-end behavior for zero-length FASTA
// records (a header immediately followed by another header): they parse to
// empty sequences, encode, index, save, load, and simply never produce hits.
func TestZeroLengthRecords(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 11)
	real := alphabet.String(g.Sequence(220))
	fastaIn := ">empty1\n>real keeps residues\n" + real + "\n>empty2\n"
	seqs, err := ReadFASTA(strings.NewReader(fastaIn))
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[0].Residues != "" || seqs[2].Residues != "" || seqs[1].Residues != real {
		t.Fatalf("parsed %d sequences: %+v", len(seqs), seqs)
	}
	p := DefaultParams()
	p.BlockResidues = 4096
	db, err := NewDatabase(seqs, p)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSequences() != 3 {
		t.Fatalf("NumSequences = %d", db.NumSequences())
	}
	loaded, err := Load(bytes.NewReader(saved(t, db)), p)
	if err != nil {
		t.Fatalf("round trip with empty sequences: %v", err)
	}
	for _, d := range []*Database{db, loaded} {
		res, err := d.Search(real[10:180])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Hits) == 0 {
			t.Fatal("no hits for exact subsequence")
		}
		for _, h := range res.Hits {
			if h.SubjectName != "real" {
				t.Fatalf("hit on zero-length sequence %q", h.SubjectName)
			}
		}
	}

	// A database of only empty sequences indexes to zero blocks and
	// searches to zero hits, in memory and through a save/load cycle.
	empty, err := NewDatabase([]Sequence{{Name: "a"}, {Name: "b"}}, p)
	if err != nil {
		t.Fatal(err)
	}
	if empty.NumBlocks() != 0 {
		t.Fatalf("all-empty database has %d blocks", empty.NumBlocks())
	}
	eloaded, err := Load(bytes.NewReader(saved(t, empty)), p)
	if err != nil {
		t.Fatalf("round trip of all-empty database: %v", err)
	}
	res, err := eloaded.Search("MKTAYIAKQR")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 0 {
		t.Fatalf("hits from all-empty database: %d", len(res.Hits))
	}
}

// TestLoadRebuildsTheSavedIndex: a version-5 container stores no index, so
// Load builds one from the sequences; at one worker and at two it must be,
// block by block, the index NewDatabase built — padding, position array,
// every word's slice of it and lead page, every split-table row, the word
// set, and the rest of each block's layout. The blocks span several pages,
// so words whose positions are several runs keep rows, and a long sequence
// is split.
func TestLoadRebuildsTheSavedIndex(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 61)
	raw := g.Database(900)
	seqs := make([]Sequence, len(raw))
	for i, s := range raw {
		seqs[i] = Sequence{Name: nameFor(i), Residues: alphabet.String(s)}
	}
	p := DefaultParams()
	p.BlockResidues = 1 << 17
	p.SplitLongerThan, p.SplitOverlap = 2000, 64
	db, err := NewDatabase(seqs, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.parts[0].chunkOrigin) == 0 {
		t.Fatal("no sequence was split")
	}
	want := db.parts[0].ix
	art := saved(t, db)
	paged := 0
	for _, b := range want.Blocks {
		if b.Pages() > 1 {
			paged++
		}
	}
	if paged < 2 {
		t.Fatalf("%d of %d blocks span several pages, want at least two", paged, len(want.Blocks))
	}
	rows := 0
	for _, threads := range []int{1, 2} {
		q := p
		q.Threads = threads
		loaded, err := Load(bytes.NewReader(art), q)
		if err != nil {
			t.Fatal(err)
		}
		got := loaded.parts[0].ix
		if len(got.Blocks) != len(want.Blocks) || got.BlockResidues != want.BlockResidues {
			t.Fatalf("threads %d: %d blocks of %d residues, saved %d of %d",
				threads, len(got.Blocks), got.BlockResidues, len(want.Blocks), want.BlockResidues)
		}
		if got.Words != want.Words {
			t.Errorf("threads %d: word set differs", threads)
		}
		for i, wb := range want.Blocks {
			gb := got.Blocks[i]
			if gb.Block != wb.Block || gb.Pad != wb.Pad || !slices.Equal(gb.Flat(), wb.Flat()) {
				t.Fatalf("threads %d, block %d: %+v pad %d, %d positions; saved %+v pad %d, %d positions",
					threads, i, gb.Block, gb.Pad, gb.NumPositions(), wb.Block, wb.Pad, wb.NumPositions())
			}
			for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
				glo, ghi, glead := gb.Word(w)
				wlo, whi, wlead := wb.Word(w)
				_, grow := gb.Runs(w)
				_, wrow := wb.Runs(w)
				if glo != wlo || ghi != whi || glead != wlead || !slices.Equal(grow, wrow) {
					t.Fatalf("threads %d, block %d, word %s: [%d,%d) lead %d row %v; saved [%d,%d) lead %d row %v",
						threads, i, w, glo, ghi, glead, grow, wlo, whi, wlead, wrow)
				}
				if wrow != nil {
					rows++
				}
			}
			if !reflect.DeepEqual(gb, wb) {
				t.Fatalf("threads %d, block %d: layout differs from the saved index's", threads, i)
			}
		}
	}
	if rows == 0 {
		t.Fatal("no word keeps a split-table row: the database does not exercise them")
	}
}

// TestBlockSizeFloor: a block size below dbindex.MinBlockResidues is refused
// by NewDatabase, and by the fingerprint reader in a container whose every
// checksum is right, before any index is built: Verify, which builds none,
// refuses it too.
func TestBlockSizeFloor(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 5)
	seqs := []Sequence{{Name: "a", Residues: alphabet.String(g.Sequence(300))}}
	p := DefaultParams()
	for _, tc := range []struct {
		block int64
		ok    bool
	}{{1, false}, {dbindex.MinBlockResidues - 1, false}, {dbindex.MinBlockResidues, true}} {
		p.BlockResidues = tc.block
		if _, err := NewDatabase(seqs, p); (err == nil) != tc.ok {
			t.Errorf("NewDatabase with block residues %d: %v", tc.block, err)
		}
	}

	// Reframe the container's PRMS section with block residues 1.
	p.BlockResidues = dbindex.MinBlockResidues
	db, err := NewDatabase(seqs, p)
	if err != nil {
		t.Fatal(err)
	}
	art := saved(t, db)
	head := len(containerMagic) + 2
	if tag := string(art[head : head+4]); tag != secParams {
		t.Fatalf("first section %q, want %s", tag, secParams)
	}
	rest := head + 12 + int(binary.LittleEndian.Uint64(art[head+4:])) + 4
	fp := binary.AppendUvarint(nil, uint64(len("BLOSUM62")))
	fp = append(fp, "BLOSUM62"...)
	for _, v := range []int64{alphabet.W, neighbor.DefaultThreshold, 1, 0, 0} {
		fp = binary.AppendVarint(fp, v)
	}
	sec := append([]byte(secParams), binary.LittleEndian.AppendUint64(nil, uint64(len(fp)))...)
	sec = append(sec, fp...)
	sec = binary.LittleEndian.AppendUint32(sec, crc32.ChecksumIEEE(sec))
	forged := append(append(append([]byte(nil), art[:head]...), sec...), art[rest:]...)
	if _, err := Load(bytes.NewReader(forged), DefaultParams()); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "block residues 1 out of range") {
		t.Errorf("Load of a container with block residues 1: got %v, want ErrCorrupt naming the block size", err)
	}
	if _, err := Verify(bytes.NewReader(forged)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Verify of a container with block residues 1: got %v, want ErrCorrupt", err)
	}
}

package dbindex

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/dbase"
	"repro/internal/matrix"
	"repro/internal/neighbor"
	"repro/internal/seqgen"
)

// nbr returns the BLOSUM62 neighbor enumerator at the default threshold.
func nbr() *neighbor.Enumerator { return neighbor.New(matrix.Blosum62, neighbor.DefaultThreshold) }

func testIndex(tb testing.TB, nSeqs int, blockResidues int64) *Index {
	tb.Helper()
	g := seqgen.New(seqgen.UniprotProfile(), 77)
	db := dbase.New(g.Database(nSeqs))
	ix, err := Build(db, nbr(), blockResidues)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

func TestEveryPositionIndexed(t *testing.T) {
	ix := testIndex(t, 80, 8192)
	// Total positions must equal the number of words across all sequences.
	want := 0
	for _, s := range ix.DB.Seqs {
		if n := len(s.Data) - alphabet.W + 1; n > 0 {
			want += n
		}
	}
	if got := ix.NumPositions(); got != want {
		t.Errorf("NumPositions = %d, want %d", got, want)
	}
}

func TestPositionsDecodeToMatchingWords(t *testing.T) {
	ix := testIndex(t, 50, 8192)
	for _, b := range ix.Blocks {
		for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
			for _, packed := range b.Positions(w) {
				local, sOff := b.Decode(packed)
				seq := b.Seq(ix.DB, local)
				if got := alphabet.WordAt(seq.Data, sOff); got != w {
					t.Fatalf("position (%d,%d) under word %s has word %s", local, sOff, w, got)
				}
			}
		}
	}
}

func TestPositionsCompleteAndOrdered(t *testing.T) {
	ix := testIndex(t, 50, 8192)
	// Every word occurrence in every sequence must appear exactly once, and
	// positions under a word must be (seqLocal, sOff)-ascending.
	for _, b := range ix.Blocks {
		seen := map[[2]int]bool{}
		for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
			ps := b.Positions(w)
			for i, packed := range ps {
				if i > 0 && ps[i] <= ps[i-1] {
					t.Fatalf("word %s positions not strictly increasing", w)
				}
				local, sOff := b.Decode(packed)
				key := [2]int{local, sOff}
				if seen[key] {
					t.Fatalf("position %v indexed twice", key)
				}
				seen[key] = true
			}
		}
		for s := b.Block.Start; s < b.Block.End; s++ {
			seq := ix.DB.Seqs[s]
			for off := 0; off+alphabet.W <= len(seq.Data); off++ {
				if !seen[[2]int{s - b.Block.Start, off}] {
					t.Fatalf("position (seq %d, off %d) missing from index", s, off)
				}
			}
		}
	}
}

func TestBlocksRespectResidueCap(t *testing.T) {
	ix := testIndex(t, 200, 4096)
	if len(ix.Blocks) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(ix.Blocks))
	}
	for _, b := range ix.Blocks {
		if b.Block.Residues > 4096 && b.Block.NumSeqs() > 1 {
			t.Errorf("block %+v exceeds cap", b.Block)
		}
	}
}

func TestDatabaseSortedDuringBuild(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 3)
	db := dbase.New(g.Database(60))
	if _, err := Build(db, nbr(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if !db.IsSortedByLength() {
		t.Error("Build did not length-sort the database")
	}
}

func TestBuildRejectsBadBlockSize(t *testing.T) {
	db := dbase.New([][]alphabet.Code{make([]alphabet.Code, 10)})
	if _, err := Build(db, nbr(), 0); err == nil {
		t.Error("accepted zero block size")
	}
}

func TestTwoLevelSmallerThanExpanded(t *testing.T) {
	ix := testIndex(t, 100, 1<<20)
	if ix.SizeBytes() >= ix.ExpandedSizeBytes() {
		t.Errorf("two-level index (%d B) not smaller than neighbor-expanded (%d B)",
			ix.SizeBytes(), ix.ExpandedSizeBytes())
	}
	// The reduction should be roughly the average neighbor count (tens of x).
	ratio := float64(ix.ExpandedSizeBytes()) / float64(ix.SizeBytes())
	if ratio < 3 {
		t.Errorf("expansion ratio %.1f, expected well above 3", ratio)
	}
}

func TestOptimalBlockResidues(t *testing.T) {
	// Paper example: 30MB L3, 12 threads -> b = 30MB/25 = 1.2MB -> ~300K
	// positions.
	got := OptimalBlockResidues(30<<20, 12)
	if got < 250_000 || got > 350_000 {
		t.Errorf("OptimalBlockResidues(30MB,12) = %d, want ~300K", got)
	}
	if OptimalBlockResidues(1024, 64) < 1024 {
		t.Error("clamp to minimum failed")
	}
	if OptimalBlockResidues(30<<20, 0) <= 0 {
		t.Error("zero threads not handled")
	}
}

// reloaded makes the round trip a stored database makes: ix's sequences are
// serialized as a container holds them, read back, and indexed again at the
// same block size and window, as loading does. It returns the rebuilt index
// and the bytes written.
func reloaded(tb testing.TB, ix *Index) (*Index, []byte) {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := ix.DB.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	written := bytes.Clone(buf.Bytes())
	db, err := dbase.ReadFrom(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	got, err := BuildWindow(db, ix.Neighbors, ix.BlockResidues, ix.MaxWindow())
	if err != nil {
		tb.Fatal(err)
	}
	return got, written
}

// TestSerializeRoundTrip: an index rebuilt from its serialized sequences
// holds what the original does, block for block.
func TestSerializeRoundTrip(t *testing.T) {
	ix := testIndex(t, 60, 8192)
	got, _ := reloaded(t, ix)
	if len(got.Blocks) != len(ix.Blocks) || got.BlockResidues != ix.BlockResidues {
		t.Fatalf("shape mismatch: %d blocks vs %d", len(got.Blocks), len(ix.Blocks))
	}
	for i, b := range ix.Blocks {
		gb := got.Blocks[i]
		if gb.Block != b.Block || gb.Pad != b.Pad {
			t.Fatalf("block %d metadata mismatch: %+v vs %+v", i, gb.Block, b.Block)
		}
		if !slices.Equal(gb.flat, b.flat) {
			t.Fatalf("block %d positions differ", i)
		}
		if gb.shift != b.shift || !slices.Equal(gb.words, b.words) || !slices.Equal(gb.bases, b.bases) {
			t.Fatalf("block %d word table mismatch", i)
		}
		if !reflect.DeepEqual(gb, b) {
			t.Fatalf("block %d differs after the round trip", i)
		}
	}
	if got.Words != ix.Words {
		t.Error("word sets differ after the round trip")
	}
}

func TestEmptyDatabase(t *testing.T) {
	db := dbase.New(nil)
	ix, err := Build(db, nbr(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Blocks) != 0 || ix.NumPositions() != 0 {
		t.Errorf("empty db produced %d blocks", len(ix.Blocks))
	}
}

// TestBuildParallelMatchesSerial: blocks land at fixed positions whatever
// the schedule, so a build on four workers holds exactly what a serial one
// does, field for field, word set included.
func TestBuildParallelMatchesSerial(t *testing.T) {
	mk := func(threads int) *Index {
		g := seqgen.New(seqgen.UniprotProfile(), 88)
		db := dbase.New(g.Database(150))
		ix, err := BuildParallel(db, nbr(), 4096, threads)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	serial := mk(1)
	par := mk(4)
	if len(serial.Blocks) != len(par.Blocks) {
		t.Fatalf("block counts differ: %d vs %d", len(serial.Blocks), len(par.Blocks))
	}
	for i := range serial.Blocks {
		if !reflect.DeepEqual(serial.Blocks[i], par.Blocks[i]) {
			t.Fatalf("block %d differs between one worker and four", i)
		}
	}
	if serial.Words != par.Words {
		t.Error("word sets differ between one worker and four")
	}
}

func TestBuildWindowPadsAndBounds(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 9)
	for _, tc := range []struct{ window, pad int }{{0, 0}, {alphabet.W, 0}, {alphabet.W + 1, 1}, {40, 37}, {100, 97}} {
		ix, err := BuildWindow(dbase.New(g.Database(20)), nbr(), 2048, tc.window)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range ix.Blocks {
			if want := int(b.Block.Residues) + b.Block.NumSeqs()*tc.pad; b.Pad != tc.pad || b.Span() != want {
				t.Errorf("window %d: block pad %d span %d, want %d and %d", tc.window, b.Pad, b.Span(), tc.pad, want)
			}
		}
		if got := ix.MaxWindow(); got != tc.pad+alphabet.W {
			t.Errorf("window %d: MaxWindow %d, want %d", tc.window, got, tc.pad+alphabet.W)
		}
	}
	if _, err := BuildWindow(dbase.New(g.Database(2)), nbr(), 2048, maxPad+alphabet.W+1); err == nil {
		t.Error("accepted a window whose padding is out of range")
	}
}

// runsBlock returns an index of one block over one sequence laid across two
// pages, whose word table has every shape a word can take: AAA in two runs
// of 298 positions (a multi-run word whose runs are too long for the split
// table's byte), CCC in two runs of one, WWW in one run that starts in page
// 1, and words such as YYY with no positions at all.
//
// It is also dense: the filler's sixteen words hold 4375 positions each, so
// the word table falls to groups smaller than 64 words.
func runsBlock(tb testing.TB) *Index {
	tb.Helper()
	filler := strings.Repeat("DEFGHIKLMNPQRSTV", 70_000/16)
	poly := strings.Repeat("A", 300)
	seq := alphabet.MustEncode(poly + "CCC" + filler + "CCCWWW" + poly)
	ix, err := Build(dbase.New([][]alphabet.Code{seq}), nbr(), 1<<20)
	if err != nil {
		tb.Fatal(err)
	}
	if len(ix.Blocks) != 1 || ix.Blocks[0].Pages() != 2 {
		tb.Fatalf("want one block of two pages, got %d blocks", len(ix.Blocks))
	}
	return ix
}

// pagedIndex returns an index of one block over 17 short sequences, each
// padded to start in a page of its own: more than NoLead pages, and a word
// of the last two sequences that occurs nowhere else is one run from page
// NoLead or later, which the lead page cannot name.
func pagedIndex(tb testing.TB) *Index {
	tb.Helper()
	g := seqgen.New(seqgen.UniprotProfile(), 11)
	seqs := make([][]alphabet.Code, NoLead+2)
	for i := range seqs {
		seqs[i] = g.Sequence(24)
	}
	ix, err := BuildWindow(dbase.New(seqs), nbr(), 1<<20, maxPad+alphabet.W)
	if err != nil {
		tb.Fatal(err)
	}
	if len(ix.Blocks) != 1 || ix.Blocks[0].Pages() <= NoLead+1 {
		tb.Fatalf("want one block of more than %d pages, got %d blocks", NoLead+1, len(ix.Blocks))
	}
	return ix
}

// TestSaveLoadSaveIdentical: saving the sequences of a reloaded index
// writes the bytes first saved, and the rebuilt index keeps the original's
// word table, split table, positions and footprint, on a dense two-page
// block and on one of more than NoLead pages.
func TestSaveLoadSaveIdentical(t *testing.T) {
	for name, ix := range map[string]*Index{"dense": runsBlock(t), "paged": pagedIndex(t)} {
		got, first := reloaded(t, ix)
		_, second := reloaded(t, got)
		if int64(len(first)) != ix.DB.EncodedSize() {
			t.Errorf("%s: EncodedSize %d, WriteTo wrote %d", name, ix.DB.EncodedSize(), len(first))
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: Save -> Load -> Save: %d bytes, then %d that differ", name, len(first), len(second))
		}
		b, gb := ix.Blocks[0], got.Blocks[0]
		if b.shift != gb.shift || !slices.Equal(b.words, gb.words) || !slices.Equal(b.bases, gb.bases) ||
			!slices.Equal(b.multi, gb.multi) || !slices.Equal(b.rows, gb.rows) || !slices.Equal(b.wide, gb.wide) ||
			!slices.Equal(b.rowDir, gb.rowDir) {
			t.Errorf("%s: loaded word table differs: multi %v wide %v, built %v %v", name, gb.multi, gb.wide, b.multi, b.wide)
		}
		for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
			if !slices.Equal(b.Positions(w), gb.Positions(w)) {
				t.Fatalf("%s: word %s: loaded positions differ", name, w)
			}
		}
		if b.SizeBytes() != gb.SizeBytes() {
			t.Errorf("%s: loaded block holds %d bytes, built %d", name, gb.SizeBytes(), b.SizeBytes())
		}
	}
}

func word(s string) alphabet.Word { return alphabet.WordAt(alphabet.MustEncode(s), 0) }

// TestRunShapes: a word's runs are described by its lead byte alone unless
// it has several, and only then does it keep a row of the split table.
func TestRunShapes(t *testing.T) {
	b := runsBlock(t).Blocks[0]
	for _, tc := range []struct {
		word  string
		page  int
		runs  []int // run length by page
		multi bool
	}{
		{"AAA", 0, []int{298, 298}, true},
		{"CCC", 0, []int{1, 1}, true},
		{"WWW", 1, []int{0, 1}, false},
		{"YYY", 0, []int{0, 0}, false},
		{"DEF", 0, []int{70_000 / 16, 0}, false},
	} {
		w := word(tc.word)
		_, page, one := b.Lead(w)
		if one == tc.multi || (one && page != tc.page) {
			t.Errorf("%s: Lead page %d one %v, want page %d one %v", tc.word, page, one, tc.page, !tc.multi)
		}
		offs, row := b.Runs(w)
		if (row != nil) != tc.multi {
			t.Errorf("%s: row %v, want a row %v", tc.word, row, tc.multi)
		}
		total := 0
		for p, want := range tc.runs {
			if got := b.RunLen(w, p, row); got != want {
				t.Errorf("%s: run from page %d has %d positions, want %d", tc.word, p, got, want)
			}
			total += want
		}
		if len(offs) != total || len(b.Positions(w)) != total {
			t.Errorf("%s: %d positions stored, %d decoded, want %d", tc.word, len(offs), len(b.Positions(w)), total)
		}
	}
	if len(b.multi) != 2 || len(b.wide) != 2 {
		t.Errorf("split table holds %d words and %d wide runs, want 2 and 2", len(b.multi), len(b.wide))
	}
}

// TestWordGroups pins the word table's group choice: the largest groups, up
// to 64 words, in which every start fits the entry's 12 bits. Uniprot-like
// blocks of up to a few hundred thousand residues keep 64-word groups; a
// word of 4096 or more positions ahead of others in its group, or a block of
// a million residues, forces smaller ones.
func TestWordGroups(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ix    *Index
		shift int // of every block; -1: of block 0, below maxGroupShift
	}{
		{"uniprot-like, small blocks", testIndex(t, 60, 8192), maxGroupShift},
		{"uniprot-like, one multi-page block", testIndex(t, 400, 1<<20), maxGroupShift},
		{"dense", runsBlock(t), -1},
		{"a million residues", testIndex(t, 2800, 1<<20), -1},
	} {
		for i, b := range tc.ix.Blocks {
			count := make([]int, alphabet.NumWords)
			for w := range count {
				count[w] = len(b.Positions(alphabet.Word(w)))
			}
			// Groups of 1<<shift words fit when the words of each but its
			// last hold at most startMask positions.
			fits := func(shift int) bool {
				for g := 0; g < alphabet.NumWords; g += 1 << shift {
					off := 0
					for _, n := range count[g : g+1<<shift-1] {
						off += n
					}
					if off > startMask {
						return false
					}
				}
				return true
			}
			shift := int(b.shift)
			if !fits(shift) || shift < maxGroupShift && fits(shift+1) {
				t.Errorf("%s: block %d has %d-word groups, not the largest that fit", tc.name, i, 1<<shift)
			}
			if tc.shift >= 0 && shift != tc.shift || tc.shift < 0 && i == 0 && shift >= maxGroupShift {
				t.Errorf("%s: block %d has %d-word groups", tc.name, i, 1<<shift)
			}
			if len(b.bases) != alphabet.NumWords>>shift+1 {
				t.Errorf("%s: block %d has %d group bases for %d-word groups", tc.name, i, len(b.bases), 1<<shift)
			}
		}
	}
}

// TestLatePageTakesRow: a word whose one run starts in page NoLead or later
// cannot name it in its lead page, so it keeps a row of the split table, and
// its positions still decode.
func TestLatePageTakesRow(t *testing.T) {
	b := pagedIndex(t).Blocks[0]
	late := 0
	for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
		ps := b.Positions(w)
		if len(ps) == 0 || ps[0]>>PageShift < NoLead || ps[len(ps)-1]-ps[0] >= 1<<PageShift {
			continue
		}
		late++
		page := int(ps[0] >> PageShift)
		offs, row := b.Runs(w)
		if _, _, one := b.Lead(w); one || row == nil || b.RunLen(w, page, row) != len(offs) {
			t.Errorf("word %s: one run of %d from page %d: Lead one %v, row %v", w, len(ps), page, one, row)
		}
	}
	if late == 0 {
		t.Fatal("no word's one run starts in page NoLead or later")
	}
}

// TestBlockFootprint pins what a block holds beyond its positions: a
// 2-byte word-table entry per word and a 4-byte base per group, a row of
// pages bytes and a 2-byte key for each word that keeps a row of the split
// table (several runs, or one from page NoLead or later; their wide runs and
// the rows' 432-byte directory aside), and the layout Decode reads.
// Uniprot-like blocks keep 64-word groups, 2.06 bytes a word; a
// block that falls to one-word groups pays 6 bytes a word. A split table
// with a row for every word would not fit.
func TestBlockFootprint(t *testing.T) {
	for k, ix := range []*Index{testIndex(t, 400, 1<<20), runsBlock(t)} {
		for i, b := range ix.Blocks {
			if b.Pages() < 2 {
				t.Fatalf("block %d spans %d page, want a multi-page block", i, b.Pages())
			}
			if uniprot := k == 0; uniprot && b.shift != maxGroupShift {
				t.Errorf("uniprot-like block %d has %d-word groups, want %d", i, 1<<b.shift, 1<<maxGroupShift)
			}
			rowWords := 0 // words whose positions are several runs, or one from page NoLead on
			for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
				ps := b.Positions(w)
				if len(ps) > 0 && ps[0]>>PageShift >= NoLead {
					rowWords++
					continue
				}
				for i := 1; i < len(ps); i++ {
					if ps[i]-ps[i-1] >= 1<<PageShift {
						rowWords++
						break
					}
				}
			}
			groups := alphabet.NumWords >> b.shift
			limit := int64(2*(alphabet.NumWords+1)+4*(groups+1)) + int64((b.Pages()+2)*rowWords) +
				int64(len(b.wide))*8 + 2*alphabet.NumWords>>rowDirShift + int64(4*len(b.segStart)+4*len(b.coarse))
			if got := b.SizeBytes() - 2*int64(b.NumPositions()); got > limit {
				t.Errorf("block %d (%d pages, %d words with rows, %d-word groups) holds %d bytes beyond its positions, more than %d",
					i, b.Pages(), rowWords, 1<<b.shift, got, limit)
			}
		}
	}
}

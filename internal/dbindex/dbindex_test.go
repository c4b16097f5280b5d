package dbindex

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/dbase"
	"repro/internal/matrix"
	"repro/internal/neighbor"
	"repro/internal/seqgen"
)

var (
	nbrOnce sync.Once
	nbrTbl  *neighbor.Table
)

func nbr() *neighbor.Table {
	nbrOnce.Do(func() { nbrTbl = neighbor.Build(matrix.Blosum62, neighbor.DefaultThreshold) })
	return nbrTbl
}

func testIndex(t *testing.T, nSeqs int, blockResidues int64) *Index {
	t.Helper()
	g := seqgen.New(seqgen.UniprotProfile(), 77)
	db := dbase.New(g.Database(nSeqs))
	ix, err := Build(db, nbr(), blockResidues)
	if err != nil {
		t.Fatal(err)
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

func TestSerializeRoundTrip(t *testing.T) {
	ix := testIndex(t, 60, 8192)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf, ix.DB)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Blocks) != len(ix.Blocks) || got.BlockResidues != ix.BlockResidues {
		t.Fatalf("shape mismatch: %d blocks vs %d", len(got.Blocks), len(ix.Blocks))
	}
	for i, b := range ix.Blocks {
		gb := got.Blocks[i]
		if gb.Block != b.Block || gb.Pad != b.Pad {
			t.Fatalf("block %d metadata mismatch: %+v vs %+v", i, gb.Block, b.Block)
		}
		if len(gb.flat) != len(b.flat) {
			t.Fatalf("block %d position count mismatch", i)
		}
		for j := range b.flat {
			if gb.flat[j] != b.flat[j] {
				t.Fatalf("block %d position %d mismatch", i, j)
			}
		}
		for w := range b.offsets {
			if gb.offsets[w] != b.offsets[w] {
				t.Fatalf("block %d offset %d mismatch", i, w)
			}
		}
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("junk")), nil); err == nil {
		t.Error("accepted garbage")
	}
	if _, err := ReadFrom(bytes.NewReader([]byte(ixMagic)), nil); err == nil {
		t.Error("accepted truncated stream")
	}
}

func TestReadFromValidatesBlockRange(t *testing.T) {
	ix := testIndex(t, 30, 8192)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tiny := dbase.New([][]alphabet.Code{make([]alphabet.Code, 10)})
	if _, err := ReadFrom(&buf, tiny); err == nil {
		t.Error("accepted index with block ranges beyond the attached db")
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
		a, b := serial.Blocks[i], par.Blocks[i]
		if a.Block != b.Block || a.Pad != b.Pad || len(a.flat) != len(b.flat) {
			t.Fatalf("block %d metadata differs", i)
		}
		for j := range a.flat {
			if a.flat[j] != b.flat[j] {
				t.Fatalf("block %d position %d differs", i, j)
			}
		}
	}
}

// reframed returns the serialized index with field (0 start, 1 end, 2
// residues, 3 maxLen, 4 pad) of the first block's header replaced.
func reframed(t *testing.T, ix *Index, field int, change func(uint64) uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	at := len(ixMagic) + 8
	_, n := binary.Uvarint(stream[at:]) // block count
	at += n
	out := append([]byte(nil), stream[:at]...)
	for f := 0; f < 5; f++ {
		v, n := binary.Uvarint(stream[at:])
		at += n
		if f == field {
			v = change(v)
		}
		out = binary.AppendUvarint(out, v)
	}
	return append(out, stream[at:]...)
}

// TestReadFromRecomputesBlockShape: the engine sizes its sort key's diagonal
// field from Block.MaxLen, so a stream that understates it would pack
// diagonals into the sequence bits and credit hits to the wrong subject, with
// every position still a valid word start. The loader walks the block's
// sequences anyway and must hold the stream to what it finds.
func TestReadFromRecomputesBlockShape(t *testing.T) {
	ix := testIndex(t, 40, 8192)
	if got, err := ReadFrom(bytes.NewReader(reframed(t, ix, 3, func(v uint64) uint64 { return v })), ix.DB); err != nil || len(got.Blocks) != len(ix.Blocks) {
		t.Fatalf("unchanged re-framing: %v", err)
	}
	for _, tc := range []struct {
		name   string
		field  int
		change func(uint64) uint64
	}{
		{"maxLen - 1", 3, func(v uint64) uint64 { return v - 1 }},
		{"maxLen + 1", 3, func(v uint64) uint64 { return v + 1 }},
		{"residues - 1", 2, func(v uint64) uint64 { return v - 1 }},
		{"pad + 1", 4, func(v uint64) uint64 { return v + 1 }}, // every position of the second sequence on moves
		{"pad 65536", 4, func(uint64) uint64 { return maxPad + 1 }},
	} {
		if got, err := ReadFrom(bytes.NewReader(reframed(t, ix, tc.field, tc.change)), ix.DB); err == nil {
			t.Errorf("%s: loaded an index (block 0 %+v, pad %d)", tc.name, got.Blocks[0].Block, got.Blocks[0].Pad)
		}
	}
	// A word's page split must not claim more positions than its list has.
	paged := testIndex(t, 400, 1<<20)
	if _, err := ReadFrom(bytes.NewReader(resplit(t, paged, func(_, c uint64) uint64 { return c })), paged.DB); err != nil {
		t.Fatalf("unchanged page split: %v", err)
	}
	if got, err := ReadFrom(bytes.NewReader(resplit(t, paged, func(n, _ uint64) uint64 { return n + 1 })), paged.DB); err == nil {
		t.Errorf("page split past its word's list: loaded an index (block 0 %+v)", got.Blocks[0].Block)
	}
}

// resplit returns the serialized index with the first run length its first
// block stores replaced by change(n, c), where c is the run length and n the
// position count of its word.
func resplit(t *testing.T, ix *Index, change func(n, c uint64) uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	at := len(ixMagic) + 8
	for range 6 { // the block count, then the first block's five header fields
		_, n := binary.Uvarint(stream[at:])
		at += n
	}
	for w := 0; w < alphabet.NumWords; w++ {
		h, k := binary.Uvarint(stream[at:])
		at += k
		if h&1 == 0 {
			continue
		}
		c, k := binary.Uvarint(stream[at:])
		out := binary.AppendUvarint(append([]byte(nil), stream[:at]...), change(h>>1, c))
		return append(out, stream[at+k:]...)
	}
	t.Fatal("block 0 stores no run length: every word is one run from page 0")
	return nil
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

// TestReadFromRejectsPositionsOfAnEmptyBlock: a block that covers no
// sequence has no coordinates, so a position stored under it must be refused
// like any other position outside the word starts.
func TestReadFromRejectsPositionsOfAnEmptyBlock(t *testing.T) {
	stream := append([]byte(ixMagic), make([]byte, 8)...)
	stream = binary.AppendUvarint(stream, 1) // one block
	for range 5 {
		stream = binary.AppendUvarint(stream, 0) // [0,0), no residues, pad 0
	}
	for w := 0; w < alphabet.NumWords; w++ {
		var n uint64
		if w == 0 {
			n = 1 // word 0 holds one position
		}
		stream = binary.AppendUvarint(stream, n)
	}
	stream = binary.LittleEndian.AppendUint16(stream, 0)
	db := dbase.New([][]alphabet.Code{{1, 2, 3, 4}})
	if got, err := ReadFrom(bytes.NewReader(stream), db); err == nil {
		t.Fatalf("loaded a position in an empty block: %+v", got.Blocks[0].Block)
	}
}

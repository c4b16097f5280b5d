package dbase

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/alphabet"
	"repro/internal/fasta"
	"repro/internal/seqgen"
)

func testDB(t *testing.T, n int) *DB {
	t.Helper()
	g := seqgen.New(seqgen.UniprotProfile(), 99)
	return New(g.Database(n))
}

func TestNewAssignsIDs(t *testing.T) {
	db := testDB(t, 10)
	for i, s := range db.Seqs {
		if s.ID != i {
			t.Errorf("seq %d has ID %d", i, s.ID)
		}
	}
	var want int64
	for _, s := range db.Seqs {
		want += int64(len(s.Data))
	}
	if db.TotalResidues != want {
		t.Errorf("TotalResidues = %d, want %d", db.TotalResidues, want)
	}
}

func TestFromRecords(t *testing.T) {
	recs := []*fasta.Record{
		{ID: "a", Seq: []byte("ARNDC")},
		{ID: "b", Seq: []byte("QEGHILK")},
	}
	db, err := FromRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSeqs() != 2 || db.Seqs[0].Name != "a" || db.Seqs[1].Len() != 7 {
		t.Errorf("bad db: %+v", db)
	}
	if db.TotalResidues != 12 {
		t.Errorf("TotalResidues = %d", db.TotalResidues)
	}
	recs[0].Seq = []byte("AR1")
	if _, err := FromRecords(recs); err == nil {
		t.Error("accepted invalid residue")
	}
}

func TestSortByLength(t *testing.T) {
	db := testDB(t, 100)
	db.SortByLength()
	if !db.IsSortedByLength() {
		t.Fatal("not sorted")
	}
	for i, s := range db.Seqs {
		if s.ID != i {
			t.Errorf("ID not renumbered at %d", i)
		}
	}
}

func TestSortIsStable(t *testing.T) {
	seqs := [][]alphabet.Code{
		make([]alphabet.Code, 5),
		make([]alphabet.Code, 5),
		make([]alphabet.Code, 3),
	}
	db := New(seqs)
	db.SortByLength()
	// The two length-5 sequences keep their relative order (seq000000 first).
	if db.Seqs[1].Name != "seq000000" || db.Seqs[2].Name != "seq000001" {
		t.Errorf("stable order violated: %s, %s", db.Seqs[1].Name, db.Seqs[2].Name)
	}
}

func TestBlocksRespectBoundaries(t *testing.T) {
	db := testDB(t, 300)
	db.SortByLength()
	blocks := db.Blocks(20000)
	if len(blocks) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(blocks))
	}
	// Blocks tile the database exactly.
	next := 0
	var total int64
	for _, b := range blocks {
		if b.Start != next {
			t.Fatalf("block start %d, want %d", b.Start, next)
		}
		if b.End <= b.Start {
			t.Fatalf("empty block %+v", b)
		}
		next = b.End
		total += b.Residues
		// No block except possibly single-sequence ones exceeds the cap.
		if b.Residues > 20000 && b.NumSeqs() > 1 {
			t.Errorf("block %+v exceeds cap with multiple sequences", b)
		}
		// MaxLen matches the longest member.
		maxLen := 0
		for i := b.Start; i < b.End; i++ {
			if db.Seqs[i].Len() > maxLen {
				maxLen = db.Seqs[i].Len()
			}
		}
		if b.MaxLen != maxLen {
			t.Errorf("block MaxLen %d, want %d", b.MaxLen, maxLen)
		}
	}
	if next != db.NumSeqs() || total != db.TotalResidues {
		t.Errorf("blocks cover %d seqs / %d residues, want %d / %d",
			next, total, db.NumSeqs(), db.TotalResidues)
	}
}

func TestBlocksSingleOversizedSequence(t *testing.T) {
	db := New([][]alphabet.Code{make([]alphabet.Code, 1000)})
	blocks := db.Blocks(100)
	if len(blocks) != 1 || blocks[0].NumSeqs() != 1 {
		t.Fatalf("oversized sequence not given its own block: %+v", blocks)
	}
}

func TestBlocksEmptyDB(t *testing.T) {
	db := New(nil)
	if blocks := db.Blocks(100); len(blocks) != 0 {
		t.Errorf("empty db produced blocks: %+v", blocks)
	}
}

func TestPartitionsRoundRobin(t *testing.T) {
	db := testDB(t, 103)
	db.SortByLength()
	parts := db.Partitions(8)
	seen := map[int]bool{}
	for p, idxs := range parts {
		for _, i := range idxs {
			if i%8 != p {
				t.Errorf("index %d in partition %d", i, p)
			}
			if seen[i] {
				t.Errorf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 103 {
		t.Errorf("partitions cover %d sequences, want 103", len(seen))
	}
	// Sizes differ by at most 1.
	min, max := len(parts[0]), len(parts[0])
	for _, p := range parts {
		if len(p) < min {
			min = len(p)
		}
		if len(p) > max {
			max = len(p)
		}
	}
	if max-min > 1 {
		t.Errorf("partition sizes range [%d,%d]", min, max)
	}
}

func TestRoundRobinBalancesResidues(t *testing.T) {
	db := testDB(t, 2000)
	db.SortByLength()
	rr := db.Partitions(16)
	contig := db.ContiguousPartitions(16)
	spread := func(parts [][]int) float64 {
		var min, max int64 = 1 << 62, 0
		for _, p := range parts {
			var r int64
			for _, i := range p {
				r += int64(db.Seqs[i].Len())
			}
			if r < min {
				min = r
			}
			if r > max {
				max = r
			}
		}
		return float64(max) / float64(min)
	}
	if s := spread(rr); s > 1.1 {
		t.Errorf("round-robin residue spread %.3f, want <= 1.1", s)
	}
	// Contiguous on a sorted db is badly skewed — that's the point.
	if spread(contig) < spread(rr) {
		t.Error("contiguous partitioning unexpectedly better balanced than round-robin")
	}
}

func TestSubset(t *testing.T) {
	db := testDB(t, 20)
	sub := db.Subset([]int{3, 7, 11})
	if sub.NumSeqs() != 3 {
		t.Fatalf("subset size %d", sub.NumSeqs())
	}
	for i, idx := range []int{3, 7, 11} {
		if sub.Seqs[i].Name != db.Seqs[idx].Name {
			t.Errorf("subset seq %d name %q, want %q", i, sub.Seqs[i].Name, db.Seqs[idx].Name)
		}
		if sub.Seqs[i].ID != i {
			t.Errorf("subset seq %d has ID %d", i, sub.Seqs[i].ID)
		}
	}
}

func TestSplitLong(t *testing.T) {
	long := make([]alphabet.Code, 10000)
	for i := range long {
		long[i] = alphabet.Code(i % 20)
	}
	short := make([]alphabet.Code, 100)
	db := New([][]alphabet.Code{short, long})
	split, origins := SplitLong(db, 4096, 256)
	if split.NumSeqs() <= 2 {
		t.Fatalf("long sequence not split: %d seqs", split.NumSeqs())
	}
	if origins[0].OrigIndex != 0 || origins[0].Offset != 0 {
		t.Errorf("short sequence origin %+v", origins[0])
	}
	// Chunks reconstruct the original: each chunk matches the original at
	// its recorded offset, adjacent chunks overlap by the overlap amount,
	// and the final chunk reaches the end.
	prevEnd := 0
	covered := 0
	for i := 1; i < split.NumSeqs(); i++ {
		o := origins[i]
		if o.OrigIndex != 1 {
			t.Fatalf("chunk %d origin %+v", i, o)
		}
		chunk := split.Seqs[i].Data
		for j, c := range chunk {
			if c != long[o.Offset+j] {
				t.Fatalf("chunk %d mismatch at %d", i, j)
			}
		}
		if i > 1 && o.Offset != prevEnd-256 {
			t.Errorf("chunk %d offset %d, want %d", i, o.Offset, prevEnd-256)
		}
		prevEnd = o.Offset + len(chunk)
		covered = prevEnd
	}
	if covered != len(long) {
		t.Errorf("chunks cover %d residues, want %d", covered, len(long))
	}
	// No chunk exceeds maxLen.
	for i := 1; i < split.NumSeqs(); i++ {
		if split.Seqs[i].Len() > 4096 {
			t.Errorf("chunk %d length %d > maxLen", i, split.Seqs[i].Len())
		}
	}
}

func TestSplitLongNoop(t *testing.T) {
	db := testDB(t, 10)
	split, origins := SplitLong(db, 1<<20, 256)
	if split.NumSeqs() != db.NumSeqs() {
		t.Errorf("no-op split changed count %d -> %d", db.NumSeqs(), split.NumSeqs())
	}
	for i, o := range origins {
		if o.OrigIndex != i || o.Offset != 0 {
			t.Errorf("origin %d = %+v", i, o)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	db := testDB(t, 50)
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSeqs() != db.NumSeqs() || got.TotalResidues != db.TotalResidues {
		t.Fatalf("round trip: %d/%d seqs, %d/%d residues",
			got.NumSeqs(), db.NumSeqs(), got.TotalResidues, db.TotalResidues)
	}
	for i := range db.Seqs {
		if got.Seqs[i].Name != db.Seqs[i].Name {
			t.Errorf("seq %d name mismatch", i)
		}
		if !bytes.Equal(got.Seqs[i].Data, db.Seqs[i].Data) {
			t.Errorf("seq %d data mismatch", i)
		}
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("not a database"))); err == nil {
		t.Error("accepted garbage")
	}
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Error("accepted empty stream")
	}
	// Truncated stream after valid magic.
	if _, err := ReadFrom(bytes.NewReader([]byte("MUDB1\n"))); err == nil {
		t.Error("accepted truncated stream")
	}
}

func TestPartitionsProperty(t *testing.T) {
	check := func(nSeqs, nParts uint8) bool {
		n := int(nSeqs%64) + 1
		p := int(nParts%16) + 1
		seqs := make([][]alphabet.Code, n)
		for i := range seqs {
			seqs[i] = make([]alphabet.Code, 10+i)
		}
		db := New(seqs)
		parts := db.Partitions(p)
		count := 0
		for _, part := range parts {
			count += len(part)
		}
		return count == n && len(parts) == p
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestFirstInvalidCode pins the eight-at-a-time residue check against the
// byte-at-a-time rule: every length up to five words, no bad byte or one at
// every position, with bad values on both sides of the carry boundaries.
func TestFirstInvalidCode(t *testing.T) {
	for n := 0; n < 40; n++ {
		for bad := -1; bad < n; bad++ {
			for _, v := range []byte{24, 25, 100, 127, 128, 151, 152, 200, 255} {
				data := make([]alphabet.Code, n)
				for i := range data {
					data[i] = alphabet.Code(i % alphabet.Size)
				}
				if bad >= 0 {
					data[bad] = v
				}
				if got := firstInvalidCode(data); got != bad {
					t.Fatalf("%d bytes, byte %d set to %d: got %d", n, bad, v, got)
				}
			}
		}
	}
}

// TestSortByLengthMatchesStableSort: SortByLength sorts a permutation and
// moves each sequence once; on databases full of equal lengths (ties
// everywhere, long cycles) it must leave exactly the order a stable sort of
// the sequences leaves, with IDs renumbered to positions.
func TestSortByLengthMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct{ n, lengths int }{{0, 1}, {1, 1}, {2, 1}, {500, 1}, {500, 3}, {2000, 17}, {2000, 400}} {
		seqs := make([][]alphabet.Code, tc.n)
		for i := range seqs {
			seqs[i] = make([]alphabet.Code, 1+rng.Intn(tc.lengths))
		}
		db, want := New(seqs), New(seqs)
		slices.SortStableFunc(want.Seqs, func(a, b Sequence) int { return cmp.Compare(len(a.Data), len(b.Data)) })
		db.SortByLength()
		for i := range want.Seqs {
			got := db.Seqs[i]
			if got.Name != want.Seqs[i].Name || &got.Data[0] != &want.Seqs[i].Data[0] || got.ID != i {
				t.Fatalf("%d sequences of %d lengths: position %d holds %s (ID %d), stable sort %s",
					tc.n, tc.lengths, i, got.Name, got.ID, want.Seqs[i].Name)
			}
		}
	}
}

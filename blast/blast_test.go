package blast

import (
	"bytes"
	"context"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/seqgen"
)

var (
	dbOnce     sync.Once
	sharedDB   *Database
	sharedSeqs []Sequence
)

func testDatabase(t *testing.T) (*Database, []Sequence) {
	t.Helper()
	dbOnce.Do(func() {
		g := seqgen.New(seqgen.UniprotProfile(), 321)
		raw := g.Database(150)
		sharedSeqs = make([]Sequence, len(raw))
		for i, s := range raw {
			sharedSeqs[i] = Sequence{Name: nameFor(i), Residues: alphabet.String(s)}
		}
		p := DefaultParams()
		p.BlockResidues = 16384
		var err error
		sharedDB, err = NewDatabase(sharedSeqs, p)
		if err != nil {
			panic(err)
		}
	})
	return sharedDB, sharedSeqs
}

func nameFor(i int) string {
	return "prot" + string(rune('A'+i/26%26)) + string(rune('A'+i%26))
}

func queryFrom(seqs []Sequence, minLen int) string {
	for _, s := range seqs {
		if len(s.Residues) >= minLen {
			return s.Residues[5 : minLen-5]
		}
	}
	return seqs[0].Residues
}

func TestSearchFindsSource(t *testing.T) {
	db, seqs := testDatabase(t)
	q := queryFrom(seqs, 150)
	res, err := db.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits for exact subsequence")
	}
	top := res.Hits[0]
	if top.EValue > 1e-10 {
		t.Errorf("top E-value %g for exact subsequence", top.EValue)
	}
	if top.Identity < 0.99 {
		t.Errorf("top identity %.2f for exact subsequence", top.Identity)
	}
}

func TestSearchBatchMatchesSingle(t *testing.T) {
	db, seqs := testDatabase(t)
	queries := []string{
		queryFrom(seqs, 100),
		queryFrom(seqs[50:], 100),
		queryFrom(seqs[100:], 100),
	}
	batch, err := db.SearchBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		single, err := db.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(single.Hits) != len(batch[i].Hits) {
			t.Fatalf("query %d: batch %d hits vs single %d", i, len(batch[i].Hits), len(single.Hits))
		}
		for j := range single.Hits {
			if single.Hits[j] != batch[i].Hits[j] {
				t.Fatalf("query %d hit %d differs", i, j)
			}
		}
	}
}

func TestBatchStatsReportTheGrid(t *testing.T) {
	db, seqs := testDatabase(t)
	queries := []string{
		queryFrom(seqs, 100),
		queryFrom(seqs[50:], 100),
		queryFrom(seqs[100:], 100),
	}
	br, err := db.SearchBatchCtx(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(db.NumBlocks() * len(queries)); br.Sched.Tasks != want {
		t.Errorf("batch reported %d tasks, want blocks x queries = %d", br.Sched.Tasks, want)
	}
}

func TestInvalidInputs(t *testing.T) {
	db, _ := testDatabase(t)
	if _, err := db.Search("MKT1A"); err == nil {
		t.Error("accepted invalid query residue")
	}
	if _, err := NewDatabase([]Sequence{{Name: "x", Residues: "AB@"}}, DefaultParams()); err == nil {
		t.Error("accepted invalid database residue")
	}
	p := DefaultParams()
	p.Matrix = "NOPE"
	if _, err := NewDatabase([]Sequence{{Name: "x", Residues: "ARN"}}, p); err == nil {
		t.Error("accepted unknown matrix")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db, seqs := testDatabase(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.BlockResidues = 16384
	loaded, err := Load(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumSequences() != db.NumSequences() || loaded.NumBlocks() != db.NumBlocks() {
		t.Fatalf("loaded shape differs: %d seqs %d blocks", loaded.NumSequences(), loaded.NumBlocks())
	}
	q := queryFrom(seqs, 130)
	a, err := db.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Hits) != len(b.Hits) {
		t.Fatalf("loaded db returns %d hits vs %d", len(b.Hits), len(a.Hits))
	}
	for i := range a.Hits {
		if a.Hits[i] != b.Hits[i] {
			t.Fatalf("hit %d differs after reload", i)
		}
	}
}

func TestFASTARoundTrip(t *testing.T) {
	_, seqs := testDatabase(t)
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, seqs[:5]); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("round trip produced %d sequences", len(got))
	}
	for i := range got {
		if got[i] != seqs[i] {
			t.Errorf("sequence %d differs", i)
		}
	}
}

func TestFormatHit(t *testing.T) {
	db, seqs := testDatabase(t)
	q := queryFrom(seqs, 150)
	res, err := db.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits")
	}
	out := db.FormatHit(q, &res.Hits[0])
	if !strings.Contains(out, "Query  1") {
		t.Errorf("formatted output missing 1-based query line:\n%s", out)
	}
	if !strings.Contains(out, "Score =") || !strings.Contains(out, "Expect =") {
		t.Errorf("formatted output missing header:\n%s", out)
	}
	// Every Query line must pair with a Sbjct line.
	ql := strings.Count(out, "Query  ")
	sl := strings.Count(out, "Sbjct  ")
	if ql == 0 || ql != sl {
		t.Errorf("Query/Sbjct line mismatch: %d vs %d", ql, sl)
	}

	// The midline marks a column '+' exactly when the database's matrix
	// scores the pair above zero. Columns: Q/H, Z/D, B/E, Z/K, R/K, A/A,
	// G/A, W/C.
	const query, subject = "QZBZRAGW", "HDEKKAAC"
	for _, c := range []struct{ matrix, midline string }{
		{"BLOSUM62", " ++++A  "}, // Q/H and G/A score 0
		{"PAM250", "+++ +A+ "},   // Q/H 3, Z/K 0, G/A 1
	} {
		p := DefaultParams()
		p.Matrix = c.matrix
		mdb, err := NewDatabase([]Sequence{{Name: "s", Residues: subject}}, p)
		if err != nil {
			t.Fatal(err)
		}
		h := Hit{SubjectName: "s", QueryEnd: len(query), SubjectEnd: len(subject), Ops: strings.Repeat("M", len(query))}
		lines := strings.Split(mdb.FormatHit(query, &h), "\n")
		i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "Query  ") })
		if i < 0 || i+1 >= len(lines) {
			t.Fatalf("%s: no Query line in %q", c.matrix, lines)
		}
		if got, want := lines[i+1], strings.Repeat(" ", 13)+c.midline; got != want {
			t.Errorf("%s midline %q, want %q", c.matrix, got, want)
		}
	}
}

func TestSummaryTable(t *testing.T) {
	db, seqs := testDatabase(t)
	res, err := db.Search(queryFrom(seqs, 120))
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if !strings.Contains(sum, "Subject") || !strings.Contains(sum, "E-value") {
		t.Errorf("summary missing header: %q", sum)
	}
	if strings.Count(sum, "\n") != len(res.Hits)+1 {
		t.Errorf("summary has %d lines for %d hits", strings.Count(sum, "\n"), len(res.Hits))
	}
}

func TestDatabaseAccessors(t *testing.T) {
	db, seqs := testDatabase(t)
	if db.NumSequences() != len(seqs) {
		t.Errorf("NumSequences = %d", db.NumSequences())
	}
	if db.TotalResidues() <= 0 || db.IndexSizeBytes() <= 0 || db.NumBlocks() <= 1 {
		t.Errorf("accessors: %d residues, %d bytes, %d blocks",
			db.TotalResidues(), db.IndexSizeBytes(), db.NumBlocks())
	}
}

func TestIdentityComputation(t *testing.T) {
	// Build a db with a known near-identical pair.
	seqs := []Sequence{
		{Name: "exact", Residues: "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQVKVKALPDAQ"},
	}
	p := DefaultParams()
	db, err := NewDatabase(seqs, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Search(seqs[0].Residues)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 {
		t.Fatalf("%d hits for self search", len(res.Hits))
	}
	if res.Hits[0].Identity != 1.0 {
		t.Errorf("self-search identity %.3f, want 1.0", res.Hits[0].Identity)
	}
	if res.Hits[0].Ops != strings.Repeat("M", len(seqs[0].Residues)) {
		t.Error("self-search traceback not all matches")
	}
}

func TestLongSequenceSplitting(t *testing.T) {
	// Build a database containing one very long sequence; with
	// SplitLongerThan set below its length, hits must still come back in
	// original-sequence coordinates under the original name.
	g := seqgen.New(seqgen.UniprotProfile(), 777)
	long := alphabet.String(g.Sequence(9000))
	short := alphabet.String(g.Sequence(200))
	p := DefaultParams()
	p.SplitLongerThan = 2000
	p.SplitOverlap = 200
	db, err := NewDatabase([]Sequence{
		{Name: "giant", Residues: long},
		{Name: "small", Residues: short},
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	// The database now holds more sequences than were supplied (chunks).
	if db.NumSequences() <= 2 {
		t.Fatalf("splitting did not happen: %d sequences", db.NumSequences())
	}
	// Query a window deep inside the long sequence.
	const start = 5000
	q := long[start : start+150]
	res, err := db.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits inside split sequence")
	}
	top := res.Hits[0]
	if top.SubjectName != "giant" {
		t.Errorf("top hit name %q, want giant", top.SubjectName)
	}
	if top.SubjectStart != start || top.SubjectEnd != start+150 {
		t.Errorf("subject coords [%d,%d), want [%d,%d)",
			top.SubjectStart, top.SubjectEnd, start, start+150)
	}
	if top.Identity < 0.999 {
		t.Errorf("identity %.3f for exact window", top.Identity)
	}
	// No duplicate of the same alignment from the overlapping chunk.
	for i := 1; i < len(res.Hits); i++ {
		h := res.Hits[i]
		if h.SubjectName == "giant" && h.SubjectStart == top.SubjectStart && h.Score == top.Score {
			t.Errorf("duplicate hit from chunk overlap: %+v", h)
		}
	}
}

func TestSplitDatabaseSaveLoadKeepsMapping(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 778)
	long := alphabet.String(g.Sequence(6000))
	p := DefaultParams()
	p.SplitLongerThan = 2000
	db, err := NewDatabase([]Sequence{{Name: "big", Residues: long}}, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	q := long[3000:3150]
	res, err := loaded.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits after reload")
	}
	if res.Hits[0].SubjectName != "big" || res.Hits[0].SubjectStart != 3000 {
		t.Errorf("reload lost chunk mapping: %+v", res.Hits[0])
	}
}

func TestTabularFormat(t *testing.T) {
	db, seqs := testDatabase(t)
	q := queryFrom(seqs, 130)
	res, err := db.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tabular("q1")
	lines := strings.Split(strings.TrimSpace(tab), "\n")
	if len(lines) != len(res.Hits) {
		t.Fatalf("%d tabular lines for %d hits", len(lines), len(res.Hits))
	}
	for _, line := range lines {
		cols := strings.Split(line, "\t")
		if len(cols) != 12 {
			t.Fatalf("line has %d columns: %q", len(cols), line)
		}
		if cols[0] != "q1" {
			t.Errorf("qseqid = %q", cols[0])
		}
	}
	// Top hit: near-exact match, so pident ~100 and mismatches small.
	cols := strings.Split(lines[0], "\t")
	pident, perr := strconv.ParseFloat(cols[2], 64)
	if perr != nil || pident < 90 {
		t.Errorf("top hit pident %s, want >= 90", cols[2])
	}
}

package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"a", "bb"}}
	tb.AddRow("x", 1)
	tb.AddRow("longer", 2.5)
	tb.Note("hello %d", 42)
	s := tb.String()
	for _, want := range []string{"== demo ==", "longer", "note: hello 42"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "> hello 42") {
		t.Errorf("Markdown() malformed:\n%s", md)
	}
}

func TestWorkloadConstruction(t *testing.T) {
	s := SmallScale()
	w, err := Uniprot(s)
	if err != nil {
		t.Fatal(err)
	}
	if w.DB.NumSeqs() != s.UniprotSeqs {
		t.Errorf("db has %d seqs", w.DB.NumSeqs())
	}
	for _, name := range QuerySetNames {
		if len(w.Queries[name]) != s.Batch {
			t.Errorf("set %s has %d queries", name, len(w.Queries[name]))
		}
	}
	for _, l := range []int{128, 256, 512} {
		for _, q := range w.Queries[strconv.Itoa(l)] {
			if len(q) != l {
				t.Errorf("set %d contains query of length %d", l, len(q))
			}
		}
	}
	if err := w.Reindex(2048); err != nil {
		t.Fatal(err)
	}
	if len(w.Index.Blocks) < 2 {
		t.Error("reindex with small blocks produced one block")
	}
}

func TestFig2SmallScale(t *testing.T) {
	tb, err := Fig2(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("Fig2 has %d rows", len(tb.Rows))
	}
	// The headline claim: NCBI-db (col 2) has higher LLC miss rate than
	// NCBI (col 1).
	llcNCBI := parseF(t, tb.Rows[0][1])
	llcDB := parseF(t, tb.Rows[0][2])
	if llcDB <= llcNCBI {
		t.Errorf("Fig 2 inversion: NCBI-db LLC %.2f <= NCBI %.2f", llcDB, llcNCBI)
	}
	// muBLASTP (col 3) improves on NCBI-db.
	llcMu := parseF(t, tb.Rows[0][3])
	if llcMu >= llcDB {
		t.Errorf("muBLASTP LLC %.2f not below NCBI-db %.2f", llcMu, llcDB)
	}
}

func TestFig6SmallScale(t *testing.T) {
	tb, err := Fig6(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("Fig6 has %d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		remaining := parseF(t, row[3])
		if remaining <= 0 || remaining >= 50 {
			t.Errorf("query %s: %.1f%% hits remain, outside plausible range", row[0], remaining)
		}
	}
}

func TestFig7SmallScale(t *testing.T) {
	tb, err := Fig7(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	// Percentages per column sum to ~100.
	for col := 1; col <= 2; col++ {
		sum := 0.0
		for _, row := range tb.Rows {
			sum += parseF(t, row[col])
		}
		if sum < 95 || sum > 105 {
			t.Errorf("column %d sums to %.1f%%", col, sum)
		}
	}
}

func TestFig9SmallScale(t *testing.T) {
	tb, err := Fig9(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 { // 2 dbs x 4 query sets
		t.Fatalf("Fig9 has %d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		for col := 2; col <= 4; col++ {
			if parseF(t, row[col]) <= 0 {
				t.Errorf("non-positive time in row %v", row)
			}
		}
	}
}

func TestFig10SmallScale(t *testing.T) {
	tb, err := Fig10(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("Fig10 has %d rows", len(tb.Rows))
	}
	// muBLASTP efficiency stays high; mpiBLAST declines; final speedup >= 2.
	lastRow := tb.Rows[len(tb.Rows)-1]
	muEff := parseF(t, lastRow[5])
	mbEff := parseF(t, lastRow[4])
	if muEff < 80 {
		t.Errorf("muBLASTP 128-node efficiency %.0f%%, want >= 80", muEff)
	}
	if mbEff >= muEff {
		t.Errorf("mpiBLAST efficiency %.0f%% not below muBLASTP %.0f%%", mbEff, muEff)
	}
	// The 128-node speedup depends on measured calibration noise at small
	// scale; it must still clearly exceed 1x (the paper reports 2.2-8.9x).
	sp := strings.TrimSuffix(lastRow[3], "x")
	if v, _ := strconv.ParseFloat(sp, 64); v < 1.3 {
		t.Errorf("128-node speedup %s, want >= 1.3x", lastRow[3])
	}
}

func TestIndexSizeSmallScale(t *testing.T) {
	tb, err := IndexSize(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	rel := strings.TrimSuffix(tb.Rows[1][2], "x")
	if v, _ := strconv.ParseFloat(rel, 64); v <= 1 {
		t.Errorf("expanded index not larger: %sx", rel)
	}
}

func TestVerifySmallScale(t *testing.T) {
	tb, err := Verify(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[3] != "true" {
			t.Errorf("verification failed for %v", row)
		}
		if n, _ := strconv.Atoi(row[2]); n <= 0 {
			t.Errorf("no HSPs compared for %v", row)
		}
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}

func TestFig8SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("block-size sweep")
	}
	tb, err := Fig8(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("Fig8 has %d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if parseF(t, row[1]) <= 0 || parseF(t, row[2]) <= 0 {
			t.Errorf("non-positive time in %v", row)
		}
		// The paper's Fig 8 claim, on the deterministic simulated columns:
		// muBLASTP misses the LLC no more than NCBI-db at any block size. The
		// two wall-clock columns are one-shot, cold, ~0.2 s timings whose
		// ratio flips with whatever else the host runs; they are reported,
		// not compared.
		if parseF(t, row[3]) > parseF(t, row[4]) {
			t.Errorf("muBLASTP LLC miss rate above NCBI-db's at %s: %v", row[0], row)
		}
	}
}

func TestFig2OversizedBlocksShowFullInversion(t *testing.T) {
	// With blocks far larger than the scaled LLC, the db-indexed
	// interleaved pipeline's last-hit arrays stop fitting and the paper's
	// full Fig 2 picture appears in the simulated metrics.
	s := SmallScale()
	s.BlockBytes = 8 << 20
	tb, err := Fig2(s)
	if err != nil {
		t.Fatal(err)
	}
	llcNCBI := parseF(t, tb.Rows[0][1])
	llcDB := parseF(t, tb.Rows[0][2])
	llcMu := parseF(t, tb.Rows[0][3])
	if llcDB < 5*llcNCBI {
		t.Errorf("oversized blocks: NCBI-db LLC %.1f%% not >> NCBI %.1f%%", llcDB, llcNCBI)
	}
	if llcMu >= llcDB {
		t.Errorf("muBLASTP LLC %.1f%% not below NCBI-db %.1f%%", llcMu, llcDB)
	}
	stallNCBI := parseF(t, tb.Rows[2][1])
	stallDB := parseF(t, tb.Rows[2][2])
	if stallDB <= stallNCBI {
		t.Errorf("stall proxy not inverted: %.1f vs %.1f", stallDB, stallNCBI)
	}
}

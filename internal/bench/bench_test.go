package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"
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
		for col := 2; col <= 5; col++ {
			if parseF(t, row[col]) <= 0 {
				t.Errorf("non-positive time or ratio in row %v", row)
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
	if v := parseF(t, lastRow[3]); v < 1.3 {
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

// parseF reads a cell's number: a plain value, or the median of a ratio
// printed as "1.23x [1.10, 1.40]".
func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.Fields(s)[0], "x"), 64)
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
	// Six distinct sizes around the one the workload is indexed at, the ×1
	// row being that size and the timed columns' reference.
	s := SmallScale()
	w, err := Uniprot(s)
	if err != nil {
		t.Fatal(err)
	}
	rule := strconv.FormatInt(s.blockResidues(w.DB.TotalResidues), 10)
	sizes := map[string]bool{}
	for _, row := range tb.Rows {
		sizes[row[0]] = true
	}
	if len(sizes) != 6 {
		t.Errorf("Fig8 sweeps %d distinct block sizes, want 6: %v", len(sizes), tb.Rows)
	}
	if ref := tb.Rows[3]; ref[0] != rule || ref[1] != "1" || ref[3] != "1.00x [1.00, 1.00]" || ref[4] != "1.00x [1.00, 1.00]" {
		t.Errorf("×1 row %v, want %s residues and the timed columns' reference", ref, rule)
	}
	mu := make([]float64, len(tb.Rows))
	db := make([]float64, len(tb.Rows))
	for i, row := range tb.Rows {
		for col := 2; col <= 4; col++ {
			if parseF(t, row[col]) <= 0 {
				t.Errorf("non-positive time or ratio in %v", row)
			}
		}
		mu[i], db[i] = parseF(t, row[5]), parseF(t, row[6])
	}
	// The paper's Fig 8 claims, on the deterministic simulated columns, each
	// row held to one of them. From the rule size up, muBLASTP misses the LLC
	// no more than NCBI-db, and NCBI-db's rate climbs more from ×1 to ×4.
	for i := 3; i < len(tb.Rows); i++ {
		if mu[i] > db[i] {
			t.Errorf("muBLASTP LLC miss rate above NCBI-db's at %s: %v", tb.Rows[i][0], tb.Rows[i])
		}
	}
	if db[5]-db[3] <= mu[5]-mu[3] {
		t.Errorf("NCBI-db's LLC miss rate climbs %.1f points from ×1 to ×4, muBLASTP's %.1f: want NCBI-db's the larger",
			db[5]-db[3], mu[5]-mu[3])
	}
	// Below the rule both engines sit on the left arm of the U: muBLASTP's
	// rate falls with every step up to the rule, NCBI-db's with every step
	// up to ×1/2. There the two rates cross, and at ×1/8 muBLASTP's is the
	// higher one (EXPERIMENTS.md, Fig 8).
	for i := 0; i < 3; i++ {
		if mu[i] <= mu[i+1] {
			t.Errorf("muBLASTP LLC miss rate %.1f%% at %s, not above %.1f%% at %s", mu[i], tb.Rows[i][0], mu[i+1], tb.Rows[i+1][0])
		}
		if i < 2 && db[i] <= db[i+1] {
			t.Errorf("NCBI-db LLC miss rate %.1f%% at %s, not above %.1f%% at %s", db[i], tb.Rows[i][0], db[i+1], tb.Rows[i+1][0])
		}
	}
}

// TestTimingCallOrder pins timeEngines' loop: one untimed warm call each,
// then five rounds alternating A B C, C B A.
func TestTimingCallOrder(t *testing.T) {
	var calls, timed []string
	engine := func(name string) func() { return func() { calls = append(calls, name) } }
	tm := interleave([]func(){engine("A"), engine("B"), engine("C")}, func(fn func()) time.Duration {
		fn()
		timed = append(timed, calls[len(calls)-1])
		return time.Millisecond
	})
	const order = "A B C C B A A B C C B A A B C"
	if got, want := strings.Join(calls, " "), "A B C "+order; got != want {
		t.Errorf("calls %q, want %q", got, want)
	}
	if got := strings.Join(timed, " "); got != order {
		t.Errorf("timed calls %q, want %q", got, order)
	}
	if len(tm) != 5 || len(tm[0]) != 3 {
		t.Errorf("timing has %d rounds of %d engines, want 5 of 3", len(tm), len(tm[0]))
	}
}

// TestTimingStatistics pins the median and the per-round ratio spread on
// fixed durations: each round's ratio is taken within the round.
func TestTimingStatistics(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		d := make([]time.Duration, len(v))
		for i := range v {
			d[i] = time.Duration(v[i]) * time.Millisecond
		}
		return d
	}
	// A drifts 10 → 40 ms; B stays at half of A in every round.
	tm := timing{ms(10, 5), ms(40, 20), ms(20, 10), ms(30, 15), ms(12, 6)}
	if got := tm.Median(0); got != 20*time.Millisecond {
		t.Errorf("median of A = %v, want 20ms", got)
	}
	if got := tm.Ratio(0, 1); got != (spread{2, 2, 2}) {
		t.Errorf("A/B = %+v, want 2 in every round", got)
	}
	tm = timing{ms(10, 10), ms(30, 10), ms(10, 40), ms(25, 10), ms(20, 10)}
	if got, want := tm.Ratio(0, 1), (spread{Median: 2, Min: 0.25, Max: 3}); got != want {
		t.Errorf("A/B = %+v, want %+v", got, want)
	}
	if got, want := tm.Ratio(0, 1).String(), "2.00x [0.25, 3.00]"; got != want {
		t.Errorf("printed %q, want %q", got, want)
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

package neighbor

import (
	"sync"
	"testing"
	"unsafe"

	"repro/internal/alphabet"
	"repro/internal/matrix"
)

// The full table takes a moment to build; share one across tests.
var (
	tblOnce sync.Once
	tbl     *Table
)

func table(t *testing.T) *Table {
	t.Helper()
	tblOnce.Do(func() { tbl = Build(matrix.Blosum62, DefaultThreshold) })
	return tbl
}

func TestNeighborsMatchBruteForce(t *testing.T) {
	tb := table(t)
	// Exhaustive check on a sample of words against the O(NumWords) scan.
	words := []string{"AAA", "WWW", "ARN", "LLL", "XXX", "CQE", "***", "AXW"}
	for _, ws := range words {
		codes := alphabet.MustEncode(ws)
		w := alphabet.PackWord(codes[0], codes[1], codes[2])
		want := map[alphabet.Word]bool{}
		for v := alphabet.Word(0); v < alphabet.NumWords; v++ {
			if matrix.Blosum62.WordScore(w, v) >= DefaultThreshold {
				want[v] = true
			}
		}
		got := tb.Neighbors(w)
		if len(got) != len(want) {
			t.Errorf("%s: %d neighbors, brute force %d", ws, len(got), len(want))
		}
		for _, v := range got {
			if !want[v] {
				t.Errorf("%s: spurious neighbor %s (score %d)", ws, v, matrix.Blosum62.WordScore(w, v))
			}
		}
	}
}

func TestSelfNeighborRule(t *testing.T) {
	tb := table(t)
	hasSelf := func(ws string) bool {
		codes := alphabet.MustEncode(ws)
		w := alphabet.PackWord(codes[0], codes[1], codes[2])
		for _, v := range tb.Neighbors(w) {
			if v == w {
				return true
			}
		}
		return false
	}
	// WWW self-score 33 >= 11: self neighbor.
	if !hasSelf("WWW") {
		t.Error("WWW is not its own neighbor")
	}
	// XXX self-score -3 < 11: not a self neighbor.
	if hasSelf("XXX") {
		t.Error("XXX is its own neighbor despite self-score below T")
	}
	// AAA self-score 12 >= 11.
	if !hasSelf("AAA") {
		t.Error("AAA is not its own neighbor")
	}
}

func TestSymmetry(t *testing.T) {
	tb := table(t)
	// Neighbor relation is symmetric because the matrix is. Spot check.
	for _, ws := range []string{"ARN", "WCL", "AAA"} {
		codes := alphabet.MustEncode(ws)
		w := alphabet.PackWord(codes[0], codes[1], codes[2])
		for _, v := range tb.Neighbors(w) {
			found := false
			for _, back := range tb.Neighbors(v) {
				if back == w {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("asymmetric: %s -> %s but not back", w, v)
			}
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	tb := table(t)
	for _, w := range []alphabet.Word{0, 100, 5000, alphabet.NumWords - 1} {
		ns := tb.Neighbors(w)
		for i := 1; i < len(ns); i++ {
			if ns[i] <= ns[i-1] {
				t.Errorf("word %d: neighbors not strictly increasing at %d", w, i)
			}
		}
	}
}

func TestNumNeighborsConsistent(t *testing.T) {
	tb := table(t)
	total := 0
	for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
		n := tb.NumNeighbors(w)
		if n != len(tb.Neighbors(w)) {
			t.Fatalf("word %d: NumNeighbors %d != len %d", w, n, len(tb.Neighbors(w)))
		}
		total += n
	}
	if total != tb.TotalEntries() {
		t.Errorf("total %d != TotalEntries %d", total, tb.TotalEntries())
	}
	// Sanity: with T=11 the average neighbor count is a few tens; the table
	// must be non-trivial but far below the 13824^2 worst case.
	avg := float64(total) / alphabet.NumWords
	if avg < 5 || avg > 500 {
		t.Errorf("average neighbor count %.1f outside plausible range", avg)
	}
}

func TestHigherThresholdShrinksTable(t *testing.T) {
	t13 := Build(matrix.Blosum62, 13)
	if t13.TotalEntries() >= table(t).TotalEntries() {
		t.Errorf("T=13 table (%d) not smaller than T=11 (%d)",
			t13.TotalEntries(), table(t).TotalEntries())
	}
}

func TestSizeBytesPositive(t *testing.T) {
	tb := table(t)
	if tb.SizeBytes() <= int64(alphabet.NumWords)*4 {
		t.Errorf("SizeBytes = %d, implausibly small", tb.SizeBytes())
	}
}

// TestTableExactSize pins the table's footprint: it is held for the life of
// the process, so it must hold 2 bytes a neighbor and no slack, and report
// exactly that.
func TestTableExactSize(t *testing.T) {
	tb := table(t)
	const entries = 500_402 // BLOSUM62, T = 11
	if got := tb.TotalEntries(); got != entries {
		t.Fatalf("BLOSUM62/T=%d table has %d entries, want %d", DefaultThreshold, got, entries)
	}
	if size := unsafe.Sizeof(tb.flat[0]); size != 2 {
		t.Errorf("a neighbor entry is %d bytes, want 2", size)
	}
	if len(tb.flat) != cap(tb.flat) || len(tb.offsets) != cap(tb.offsets) {
		t.Errorf("slack: flat len %d cap %d, offsets len %d cap %d", len(tb.flat), cap(tb.flat), len(tb.offsets), cap(tb.offsets))
	}
	if got, want := tb.SizeBytes(), int64(2*entries+4*(alphabet.NumWords+1)); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
}

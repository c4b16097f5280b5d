package neighbor

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/alphabet"
	"repro/internal/matrix"
)

var blosum62 = New(matrix.Blosum62, DefaultThreshold)

func word(s string) alphabet.Word {
	c := alphabet.MustEncode(s)
	return alphabet.PackWord(c[0], c[1], c[2])
}

// bruteForce lists the neighbors of w by scoring every partner word, in
// ascending word order (the nested loops run over the partner's residues
// first to last, so words come in their packed order).
func bruteForce(m *matrix.Matrix, threshold int, w alphabet.Word) []alphabet.Word {
	w0, w1, w2 := w.Unpack()
	r0, r1, r2 := m.Row(w0), m.Row(w1), m.Row(w2)
	var out []alphabet.Word
	for c0, s0 := range r0 {
		for c1, s1 := range r1 {
			for c2, s2 := range r2 {
				if int(s0)+int(s1)+int(s2) >= threshold {
					out = append(out, alphabet.PackWord(alphabet.Code(c0), alphabet.Code(c1), alphabet.Code(c2)))
				}
			}
		}
	}
	return out
}

// total returns the number of (word, neighbor) pairs under e.
func total(e *Enumerator) int {
	n := 0
	var buf []alphabet.Word
	for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
		buf = e.Append(buf[:0], w)
		n += len(buf)
	}
	return n
}

func TestNeighborsMatchBruteForce(t *testing.T) {
	for _, ws := range []string{"AAA", "WWW", "ARN", "LLL", "XXX", "CQE", "***", "AXW"} {
		w := word(ws)
		got := blosum62.Append(nil, w)
		if want := bruteForce(matrix.Blosum62, DefaultThreshold, w); !slices.Equal(got, want) {
			t.Errorf("%s: enumerated %d neighbors %v, brute force %d %v", ws, len(got), got, len(want), want)
		}
	}
}

// TestEnumeratorExact checks every word's neighbors, in order, against the
// brute-force scan under each built-in matrix at three thresholds — words
// with X or * among them, most of which are not their own neighbors — and
// pins what the enumerator holds: the masks and row maxima, a few KB, and
// nothing per word.
func TestEnumeratorExact(t *testing.T) {
	for _, m := range []*matrix.Matrix{matrix.Blosum62, matrix.Blosum50, matrix.Pam250} {
		for _, threshold := range []int{9, 11, 13} {
			t.Run(fmt.Sprintf("%s/T=%d", m.Name, threshold), func(t *testing.T) {
				t.Parallel()
				e := New(m, threshold)
				var got []alphabet.Word
				notSelf := 0
				for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
					got = e.Append(got[:0], w)
					want := bruteForce(m, threshold, w)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: enumerated %v, brute force %v", w, got, want)
					}
					if !slices.Contains(got, w) {
						notSelf++
					}
				}
				if notSelf == 0 {
					t.Error("every word is its own neighbor: the words below the threshold were not covered")
				}
				span := m.Max() - m.Min() + 2
				if got, want := e.SizeBytes(), int64(alphabet.Size*span*4+alphabet.Size); got != want {
					t.Errorf("SizeBytes = %d, want %d (a mask per residue and score, a maximum per residue)", got, want)
				}
				if e.SizeBytes() > 4<<10 {
					t.Errorf("enumerator holds %d bytes, want at most 4 KiB", e.SizeBytes())
				}
			})
		}
	}
	// The struct itself: a field added to it (a per-word table, say) must
	// be counted by SizeBytes and this pin moved with it.
	if got, want := unsafe.Sizeof(Enumerator{}), uintptr(8+8+24+8+8+alphabet.Size); got != want {
		t.Errorf("Enumerator is %d bytes, want %d", got, want)
	}
}

func TestSelfNeighborRule(t *testing.T) {
	hasSelf := func(ws string) bool {
		w := word(ws)
		return slices.Contains(blosum62.Append(nil, w), w)
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
	// Neighbor relation is symmetric because the matrix is. Spot check.
	for _, ws := range []string{"ARN", "WCL", "AAA"} {
		w := word(ws)
		for _, v := range blosum62.Append(nil, w) {
			if !slices.Contains(blosum62.Append(nil, v), w) {
				t.Errorf("asymmetric: %s -> %s but not back", w, v)
			}
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	for _, w := range []alphabet.Word{0, 100, 5000, alphabet.NumWords - 1} {
		ns := blosum62.Append(nil, w)
		for i := 1; i < len(ns); i++ {
			if ns[i] <= ns[i-1] {
				t.Errorf("word %d: neighbors not strictly increasing at %d", w, i)
			}
		}
	}
}

func TestNumNeighborsConsistent(t *testing.T) {
	// BLOSUM62 at T = 11 pairs 500 402 (word, neighbor): the table this
	// enumerator replaced held exactly that many entries.
	if n := total(blosum62); n != 500_402 {
		t.Errorf("BLOSUM62/T=%d lists %d neighbors over all words, want 500402", DefaultThreshold, n)
	}
}

func TestHigherThresholdShrinksTable(t *testing.T) {
	if t13, t11 := total(New(matrix.Blosum62, 13)), total(blosum62); t13 >= t11 {
		t.Errorf("T=13 lists %d neighbors, not fewer than T=11's %d", t13, t11)
	}
}

func TestSizeBytesPositive(t *testing.T) {
	if n := blosum62.SizeBytes(); n <= alphabet.Size*4 {
		t.Errorf("SizeBytes = %d, implausibly small", n)
	}
}

// TestAppendIn checks the filter: the neighbors of a word in a set are its
// neighbors that the set holds, in the same order.
func TestAppendIn(t *testing.T) {
	var in Set
	for w := alphabet.Word(0); w < alphabet.NumWords; w += 3 {
		in.Add(w)
	}
	var got, want []alphabet.Word
	for w := alphabet.Word(0); w < alphabet.NumWords; w += 7 {
		got = blosum62.AppendIn(got[:0], w, &in)
		want = want[:0]
		for _, v := range blosum62.Append(nil, w) {
			if in.Has(v) {
				want = append(want, v)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: AppendIn %v, filtered Append %v", w, got, want)
		}
	}
	var u Set
	u.Union(&in)
	if u != in || u.Has(1) || !u.Has(3) {
		t.Error("Union or Has disagrees with Add")
	}
}

// BenchmarkAppend enumerates the neighbors of every word over the 20
// standard residues, reporting the time a listed neighbor.
func BenchmarkAppend(b *testing.B) {
	var words []alphabet.Word
	for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
		if c0, c1, c2 := w.Unpack(); max(c0, c1, c2) < 20 {
			words = append(words, w)
		}
	}
	var buf []alphabet.Word
	n := 0
	for i := 0; i < b.N; i++ {
		buf = blosum62.Append(buf[:0], words[i%len(words)])
		n += len(buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(n, 1)), "ns/neighbor")
}

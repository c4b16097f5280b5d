package qindex

import (
	"testing"

	"repro/internal/alphabet"
	"repro/internal/matrix"
	"repro/internal/neighbor"
	"repro/internal/seqgen"
)

// nbr returns the BLOSUM62 neighbor enumerator at the default threshold.
func nbr() *neighbor.Enumerator { return neighbor.New(matrix.Blosum62, neighbor.DefaultThreshold) }

func TestPositionsMatchBruteForce(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 17)
	query := g.Sequence(200)
	ix := Build(query, nbr())
	// Brute force: for a sample of words v, collect every query offset whose
	// word scores >= T against v.
	for _, v := range []alphabet.Word{0, 1234, 7777, alphabet.NumWords - 1,
		alphabet.WordAt(query, 0), alphabet.WordAt(query, 50)} {
		var want []int32
		alphabet.Words(query, func(off int, w alphabet.Word) {
			if matrix.Blosum62.WordScore(w, v) >= neighbor.DefaultThreshold {
				want = append(want, int32(off))
			}
		})
		got := ix.Positions(v)
		if len(got) != len(want) {
			t.Fatalf("word %v: %d positions, want %d", v, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("word %v: position %d = %d, want %d", v, i, got[i], want[i])
			}
		}
		if ix.Present(v) != (len(want) > 0) {
			t.Errorf("word %v: Present = %v with %d positions", v, ix.Present(v), len(want))
		}
	}
}

func TestPositionsSortedAscending(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 23)
	ix := Build(g.Sequence(512), nbr())
	for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
		ps := ix.Positions(w)
		for i := 1; i < len(ps); i++ {
			if ps[i] < ps[i-1] {
				t.Fatalf("word %d: positions out of order", w)
			}
		}
	}
}

func TestPvConsistentWithTable(t *testing.T) {
	g := seqgen.New(seqgen.EnvNRProfile(), 29)
	ix := Build(g.Sequence(128), nbr())
	for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
		if ix.Present(w) != (len(ix.Positions(w)) > 0) {
			t.Fatalf("pv inconsistent at word %d", w)
		}
	}
}

func TestShortQuery(t *testing.T) {
	for _, l := range []int{0, 1, 2} {
		ix := Build(make([]alphabet.Code, l), nbr())
		if ix.TotalPositions() != 0 {
			t.Errorf("query length %d produced %d positions", l, ix.TotalPositions())
		}
	}
}

func TestExactWordAlwaysPresentForStandardResidues(t *testing.T) {
	// For standard residues, a query word is (almost always) its own
	// neighbor under T=11, so looking up the exact word must find its own
	// offset.
	query := alphabet.MustEncode("WWWCCCHHH")
	ix := Build(query, nbr())
	w := alphabet.WordAt(query, 0) // WWW, self-score 33
	found := false
	for _, p := range ix.Positions(w) {
		if p == 0 {
			found = true
		}
	}
	if !found {
		t.Error("WWW at offset 0 not found under its own word")
	}
}

func TestTotalPositionsEqualsNeighborExpansion(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 31)
	query := g.Sequence(256)
	want := 0
	alphabet.Words(query, func(_ int, w alphabet.Word) {
		want += len(nbr().Append(nil, w))
	})
	ix := Build(query, nbr())
	if ix.TotalPositions() != want {
		t.Errorf("TotalPositions = %d, want %d", ix.TotalPositions(), want)
	}
	if ix.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
}

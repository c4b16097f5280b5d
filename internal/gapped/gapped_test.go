package gapped

import (
	"testing"

	"repro/internal/alphabet"
	"repro/internal/matrix"
	"repro/internal/seqgen"
)

func enc(s string) []alphabet.Code { return alphabet.MustEncode(s) }

func defAligner() *Aligner { return NewAligner(matrix.Blosum62, DefaultParams()) }

func TestExtendIdentical(t *testing.T) {
	q := enc("ARNDCQEGHILKMFPSTWYVARNDCQEGHILKMFPSTWYV")
	a := defAligner().Extend(q, q, 20, 20)
	want := matrix.Blosum62.SeqScore(q, q)
	if a.Score != want {
		t.Errorf("score %d, want %d", a.Score, want)
	}
	if a.QStart != 0 || a.QEnd != len(q) {
		t.Errorf("span [%d,%d), want full", a.QStart, a.QEnd)
	}
	if err := a.Validate(matrix.Blosum62, q, q, DefaultParams()); err != nil {
		t.Error(err)
	}
}

func TestExtendCrossesGap(t *testing.T) {
	// Seed in the left identical half; the extension must bridge the
	// 3-residue insertion and pick up the right half.
	q := enc("HHHHHHHHHHKKKKKKKKKK")
	s := enc("HHHHHHHHHHAAAKKKKKKKKKK")
	a := defAligner().Extend(q, s, 5, 5)
	want := 130 - 14 // see sw tests
	if a.Score != want {
		t.Errorf("score %d, want %d", a.Score, want)
	}
	ins := 0
	for _, op := range a.Ops {
		if op == OpIns {
			ins++
		}
	}
	if ins != 3 {
		t.Errorf("%d insertions, want 3", ins)
	}
	if err := a.Validate(matrix.Blosum62, q, s, DefaultParams()); err != nil {
		t.Error(err)
	}
}

func TestExtendBackwardGap(t *testing.T) {
	// Gap strictly left of the seed: the backward half must handle it.
	q := enc("KKKKKKKKKKHHHHHHHHHH")
	s := enc("KKKKKKKKKKAAAHHHHHHHHHH")
	a := defAligner().Extend(q, s, 15, 18)
	want := 130 - 14
	if a.Score != want {
		t.Errorf("score %d, want %d", a.Score, want)
	}
	if err := a.Validate(matrix.Blosum62, q, s, DefaultParams()); err != nil {
		t.Error(err)
	}
}

func TestExtendSeedAtEdges(t *testing.T) {
	q := enc("HHHHHHHH")
	for _, seed := range []struct{ qs, ss int }{{0, 0}, {8, 8}, {4, 4}} {
		a := defAligner().Extend(q, q, seed.qs, seed.ss)
		if a.Score != matrix.Blosum62.SeqScore(q, q) {
			t.Errorf("seed %v: score %d", seed, a.Score)
		}
		if err := a.Validate(matrix.Blosum62, q, q, DefaultParams()); err != nil {
			t.Errorf("seed %v: %v", seed, err)
		}
	}
}

func TestExtendEmptyHalves(t *testing.T) {
	q := enc("PPP")
	s := enc("GGG")
	// Completely dissimilar: both halves empty, score 0, empty span at seed.
	a := defAligner().Extend(q, s, 1, 1)
	if a.Score < 0 {
		t.Errorf("negative score %d", a.Score)
	}
	if err := a.Validate(matrix.Blosum62, q, s, DefaultParams()); err != nil {
		t.Error(err)
	}
}

func TestExtendAtLeastUngappedScore(t *testing.T) {
	// Gapped extension through a seed is at least as good as the best
	// ungapped diagonal run through that seed.
	g := seqgen.New(seqgen.UniprotProfile(), 61)
	db := g.Database(10)
	qs := g.Queries(db, 5, 64)
	al := defAligner()
	for _, q := range qs {
		for _, s := range db {
			if len(s) < 64 {
				continue
			}
			qSeed, sSeed := 32, 32
			a := al.Extend(q, s, qSeed, sSeed)
			// Ungapped diagonal score through the seed.
			diagBest, cum := 0, 0
			for i, j := qSeed, sSeed; i < len(q) && j < len(s); i, j = i+1, j+1 {
				cum += matrix.Blosum62.Score(q[i], s[j])
				if cum > diagBest {
					diagBest = cum
				}
			}
			if a.Score < diagBest {
				t.Errorf("gapped %d < forward ungapped %d", a.Score, diagBest)
			}
			if err := a.Validate(matrix.Blosum62, q, s, DefaultParams()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	q := enc("HHHHHH")
	a := defAligner().Extend(q, q, 2, 2)
	bad := a
	bad.Score++
	if err := bad.Validate(matrix.Blosum62, q, q, DefaultParams()); err == nil {
		t.Error("Validate accepted wrong score")
	}
	bad = a
	bad.QEnd++
	if err := bad.Validate(matrix.Blosum62, q, q, DefaultParams()); err == nil {
		t.Error("Validate accepted wrong endpoint")
	}
}

func TestAlignerReuse(t *testing.T) {
	// Reusing one aligner across calls must not leak state between calls.
	al := defAligner()
	q1 := enc("HHHHHHHHHHHHHHHH")
	q2 := enc("KKKKKKKKKKKKKKKK")
	a1 := al.Extend(q1, q1, 8, 8)
	_ = al.Extend(q2, q2, 8, 8)
	a3 := al.Extend(q1, q1, 8, 8)
	if a1.Score != a3.Score || a1.QStart != a3.QStart {
		t.Errorf("aligner state leaked: %+v vs %+v", a1, a3)
	}
}

func TestXDropLimitsExtension(t *testing.T) {
	// Distant second core beyond a junk stretch whose cost exceeds XDrop:
	// with a small XDrop the extension must stop at the first core.
	q := enc("HHHHHHHH" + "PPPPPPPPPPPPPPPPPPPPPPPPPPPPPP" + "HHHHHHHH")
	s := enc("HHHHHHHH" + "GGGGGGGGGGGGGGGGGGGGGGGGGGGGGG" + "HHHHHHHH")
	small := NewAligner(matrix.Blosum62, Params{GapOpen: 11, GapExtend: 1, XDrop: 10})
	a := small.Extend(q, s, 2, 2)
	if a.QEnd > 10 {
		t.Errorf("small XDrop extension reached %d, want <= 10", a.QEnd)
	}
	// A huge XDrop bridges the junk (30 positions at -2 = -60 penalty is
	// recovered by the second 8xH core worth 64... it is not, -60+64 > 0 but
	// the running dip is 60, so XDrop must exceed 60 to bridge).
	big := NewAligner(matrix.Blosum62, Params{GapOpen: 11, GapExtend: 1, XDrop: 100})
	b := big.Extend(q, s, 2, 2)
	if b.QEnd != len(q) {
		t.Errorf("large XDrop extension reached %d, want %d", b.QEnd, len(q))
	}
	if b.Score <= a.Score {
		t.Errorf("bridged score %d not above stopped score %d", b.Score, a.Score)
	}
}

func TestMaxCellsGuard(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 71)
	q := g.Sequence(400)
	s := g.Sequence(400)
	al := NewAligner(matrix.Blosum62, Params{GapOpen: 11, GapExtend: 1, XDrop: 38, MaxCells: 100})
	a := al.Extend(q, s, 200, 200)
	// Guard must not corrupt the traceback even when it truncates the DP.
	if err := a.Validate(matrix.Blosum62, q, s, al.P); err != nil {
		t.Error(err)
	}
}

// TestNewAlignerRejectsNegativeGaps: the kernel's E recurrence holds only
// for gap costs >= 0, so NewAligner refuses anything else.
func TestNewAlignerRejectsNegativeGaps(t *testing.T) {
	for _, p := range []Params{{GapOpen: -1, GapExtend: 1, XDrop: 38}, {GapOpen: 11, GapExtend: -1, XDrop: 38}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAligner(%+v) did not panic", p)
				}
			}()
			NewAligner(matrix.Blosum62, p)
		}()
	}
	NewAligner(matrix.Blosum62, Params{GapOpen: 0, GapExtend: 0, XDrop: 38})
}

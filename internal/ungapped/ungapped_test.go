package ungapped

import (
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/matrix"
	"repro/internal/seqgen"
)

func enc(s string) []alphabet.Code { return alphabet.MustEncode(s) }

// blosum62 is the BLOSUM62 profile of q, what Canon and the kernels take.
func blosum62(q []alphabet.Code) *matrix.Profile { return matrix.NewProfile(matrix.Blosum62, q) }

func TestExtendIdenticalSequences(t *testing.T) {
	q := enc("ARNDCQEGHILKMFPSTWYV")
	e, _ := ExtendProfile(blosum62(q), q, 8, 8, 16, 0)
	// Identical sequences: the extension should cover everything.
	if e.QStart != 0 || e.QEnd != len(q) || e.SStart != 0 || e.SEnd != len(q) {
		t.Errorf("extension [%d,%d)x[%d,%d), want full cover", e.QStart, e.QEnd, e.SStart, e.SEnd)
	}
	want := matrix.Blosum62.SeqScore(q, q)
	if e.Score != want {
		t.Errorf("score %d, want %d", e.Score, want)
	}
}

func TestExtendStopsAtXDrop(t *testing.T) {
	// A strong seed surrounded by terrible matches: W vs C scores -2, and a
	// run of them exceeds any reasonable X-drop.
	q := enc("WWWWWWWWWW" + "HHH" + "WWWWWWWWWW")
	s := enc("CCCCCCCCCC" + "HHH" + "CCCCCCCCCC")
	e, _ := ExtendProfile(blosum62(q), s, 10, 10, 5, 0)
	if e.QStart != 10 || e.QEnd != 13 {
		t.Errorf("extension [%d,%d), want exactly the seed [10,13)", e.QStart, e.QEnd)
	}
	if e.Score != 3*8 {
		t.Errorf("score %d, want %d (HHH)", e.Score, 24)
	}
}

func TestExtendRespectsSequenceBounds(t *testing.T) {
	q := enc("HHH")
	s := enc("AAHHHAA")
	e, _ := ExtendProfile(blosum62(q), s, 0, 2, 16, 0)
	if e.QStart < 0 || e.QEnd > len(q) || e.SStart < 0 || e.SEnd > len(s) {
		t.Errorf("extension out of bounds: %+v", e)
	}
	if e.QStart != 0 || e.QEnd != 3 {
		t.Errorf("extension [%d,%d), want [0,3)", e.QStart, e.QEnd)
	}
}

func TestExtendDiagonalConsistency(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 5)
	q := g.Sequence(200)
	s := g.Sequence(300)
	for _, off := range []struct{ q, s int }{{0, 0}, {50, 80}, {197, 297}, {10, 0}, {0, 10}} {
		e, _ := ExtendProfile(blosum62(q), s, off.q, off.s, 16, 0)
		if e.QEnd-e.QStart != e.SEnd-e.SStart {
			t.Errorf("offsets %v: extension lengths differ: %+v", off, e)
		}
		if e.QStart > off.q || e.QEnd < off.q+alphabet.W {
			t.Errorf("offsets %v: extension does not contain the seed word: %+v", off, e)
		}
		// Recomputing the score over the reported region must agree.
		want := 0
		for i := 0; i < e.QEnd-e.QStart; i++ {
			want += matrix.Blosum62.Score(q[e.QStart+i], s[e.SStart+i])
		}
		if want != e.Score {
			t.Errorf("offsets %v: reported score %d, recomputed %d", off, e.Score, want)
		}
	}
}

func TestExtendScoreNeverBelowSeedBest(t *testing.T) {
	// The extension score is at least the seed word score (left/right
	// extensions contribute >= 0 by construction).
	g := seqgen.New(seqgen.EnvNRProfile(), 6)
	q := g.Sequence(100)
	s := g.Sequence(100)
	for qo := 0; qo+alphabet.W <= len(q); qo += 7 {
		for so := 0; so+alphabet.W <= len(s); so += 13 {
			e, _ := ExtendProfile(blosum62(q), s, qo, so, 16, 0)
			seed := 0
			for k := 0; k < alphabet.W; k++ {
				seed += matrix.Blosum62.Score(q[qo+k], s[so+k])
			}
			if e.Score < seed {
				t.Fatalf("extension score %d below seed score %d at (%d,%d)", e.Score, seed, qo, so)
			}
		}
	}
}

func TestCanonPairsWithinWindow(t *testing.T) {
	q := enc("HHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHH")
	s := q
	c := &Canon{P: Params{Window: 40, XDrop: 16, Trigger: 10000}, Prof: blosum62(q)}
	var d DiagState
	d.Reset()
	// First hit never extends.
	if _, _, extended, _ := c.Step(&d, s, 0, 0); extended {
		t.Error("first hit extended")
	}
	// Second hit within window extends.
	if _, _, extended, _ := c.Step(&d, s, 10, 10); !extended {
		t.Error("paired hit did not extend")
	}
}

func TestCanonWindowBoundary(t *testing.T) {
	q := enc("HHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHH")
	c := &Canon{P: Params{Window: 10, XDrop: 16, Trigger: 10000}, Prof: blosum62(q)}
	var d DiagState
	d.Reset()
	c.Step(&d, q, 0, 0)
	// Distance exactly equal to the window does NOT pair (strict <).
	if _, _, extended, _ := c.Step(&d, q, 10, 10); extended {
		t.Error("distance == window paired")
	}
	// But it becomes the new last hit: a hit 9 later pairs with it.
	if _, _, extended, _ := c.Step(&d, q, 19, 19); !extended {
		t.Error("hit within window of updated last hit did not pair")
	}
}

func TestCanonZeroDistanceDoesNotPair(t *testing.T) {
	q := enc("HHHHHHHHHH")
	c := &Canon{P: Params{Window: 40, XDrop: 16, Trigger: 41}, Prof: blosum62(q)}
	var d DiagState
	d.Reset()
	c.Step(&d, q, 3, 3)
	if _, _, extended, _ := c.Step(&d, q, 3, 3); extended {
		t.Error("duplicate hit at the same offset paired with itself")
	}
}

func TestCanonSkipsCoveredHits(t *testing.T) {
	// Identical sequences: the first pair's extension covers everything, so
	// later pairs on the diagonal must be skipped.
	q := enc("HHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHHH")
	c := &Canon{P: Params{Window: 40, XDrop: 16, Trigger: 41}, Prof: blosum62(q)}
	var d DiagState
	d.Reset()
	extCount := 0
	for off := 0; off+alphabet.W <= len(q); off += 4 {
		if _, _, extended, _ := c.Step(&d, q, off, off); extended {
			extCount++
		}
	}
	if extCount != 1 {
		t.Errorf("%d extensions on a fully-covered diagonal, want 1", extCount)
	}
}

// TestCanonKeepsAtTrigger: an extension scoring exactly Trigger is kept and
// advances the diagonal to its end; with Trigger one above its score it is
// not kept and the diagonal advances only to the hit.
func TestCanonKeepsAtTrigger(t *testing.T) {
	q := enc("WWWWWWWWWWHHHKLMWWWWWWWWWHHHWWWWWWWWWW")
	s := enc("CCCCCCCCCCHHHKLMCCCCCCCCCHHHCCCCCCCCCC")
	ext, _ := ExtendProfile(blosum62(q), s, 10, 10, 16, 0)
	score := ext.Score
	for _, tc := range []struct {
		trigger int
		keep    bool
	}{{score, true}, {score + 1, false}} {
		c := &Canon{P: Params{Window: 40, XDrop: 16, Trigger: tc.trigger}, Prof: blosum62(q)}
		var d DiagState
		d.Reset()
		ext, extended, keep := c.ExtendPair(&d, s, 10, 10, alphabet.W)
		if !extended || ext.Score != score || keep != tc.keep {
			t.Fatalf("Trigger %d: extended %v, score %d, keep %v; want score %d, keep %v",
				tc.trigger, extended, ext.Score, keep, score, tc.keep)
		}
		reached := int32(10)
		if tc.keep {
			reached = int32(ext.QEnd)
		}
		if d.ExtReached != reached {
			t.Errorf("Trigger %d: extReached %d, want %d", tc.trigger, d.ExtReached, reached)
		}
	}
}

func TestCanonKeepOnlyAboveTrigger(t *testing.T) {
	// Short seed on otherwise dissimilar sequences: extension score stays
	// small, keep must be false, and extReached advances only to the hit.
	q := enc("WWWWWWWWWWHHHWWWWWWWWWWHHHWWWWWWWWWW")
	s := enc("CCCCCCCCCCHHHCCCCCCCCCCHHHCCCCCCCCCC")
	c := &Canon{P: Params{Window: 40, XDrop: 5, Trigger: 41}, Prof: blosum62(q)}
	var d DiagState
	d.Reset()
	c.Step(&d, s, 10, 10)
	ext, _, extended, keep := c.Step(&d, s, 23, 23)
	if !extended {
		t.Fatal("second hit did not extend")
	}
	if keep {
		t.Errorf("weak extension (score %d) kept", ext.Score)
	}
	if d.ExtReached != 23 {
		t.Errorf("extReached = %d, want hit offset 23", d.ExtReached)
	}
}

// TestCanonWalksRightOnlyOnReach pins NCBI's extension rule: the right walk
// runs only when the left walk's best reaches the end of the first hit's
// word, need = dist - W residues left of the seed. Left of the seed sit two
// H-H cells and then H-D cells (-1 each), so the left walk's best is 2 cells
// long. A first hit 3 back (need 0) lets the extension run right through the
// H-H tail; one 20 back (need 17) stops it at the seed word, keeps it on its
// score, and advances the diagonal only to the hit.
func TestCanonWalksRightOnlyOnReach(t *testing.T) {
	q := enc(strings.Repeat("H", 50))
	s := enc(strings.Repeat("D", 18) + strings.Repeat("H", 32))
	c := &Canon{P: Params{Window: 40, XDrop: 16, Trigger: 30}, Prof: blosum62(q)}
	for _, tc := range []struct {
		first   int
		want    Ext
		reached int32
	}{
		{17, Ext{Score: 16 + 24 + 27*8, QStart: 18, QEnd: 50, SStart: 18, SEnd: 50}, 50},
		{0, Ext{Score: 16 + 24, QStart: 18, QEnd: 23, SStart: 18, SEnd: 23}, 20},
	} {
		var d DiagState
		d.Reset()
		c.Step(&d, s, tc.first, tc.first)
		ext, paired, extended, keep := c.Step(&d, s, 20, 20)
		if !paired || !extended || !keep || ext != tc.want {
			t.Fatalf("first hit %d: %+v paired %v extended %v keep %v, want %+v kept", tc.first, ext, paired, extended, keep, tc.want)
		}
		if d.ExtReached != tc.reached {
			t.Errorf("first hit %d: extReached %d, want %d", tc.first, d.ExtReached, tc.reached)
		}
	}
}

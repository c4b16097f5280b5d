package gapped

import (
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/matrix"
)

func equivSeq(rng *rand.Rand, n int) []alphabet.Code {
	s := make([]alphabet.Code, n)
	for i := range s {
		s[i] = alphabet.Code(rng.Intn(alphabet.Size))
	}
	return s
}

// sameAln compares the comparable fields (score-only kernels never emit Ops).
func sameAln(a, b Alignment) bool {
	return a.Score == b.Score && a.QStart == b.QStart && a.QEnd == b.QEnd &&
		a.SStart == b.SStart && a.SEnd == b.SEnd
}

// TestExtendScoreProfEquivalence pins the profile-driven score-only kernel
// to the reference rolling-row implementation: identical alignments (score
// and all four endpoints) for random sequences, seeds, and gap parameters.
// The register-carry restructuring (diagonal H, same-row H/E, no stored E
// row) and the pre-sized indexed row stores are all observable here if they
// diverge by even one cell.
func TestExtendScoreProfEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 200; trial++ {
		q := equivSeq(rng, 8+rng.Intn(200))
		s := equivSeq(rng, 8+rng.Intn(300))
		p := Params{
			GapOpen:   5 + rng.Intn(12),
			GapExtend: 1 + rng.Intn(3),
			XDrop:     5 + rng.Intn(60),
		}
		a := NewAligner(matrix.Blosum62, p)
		prof := matrix.NewProfile(matrix.Blosum62, q)
		for rep := 0; rep < 4; rep++ {
			qSeed := rng.Intn(len(q))
			sSeed := rng.Intn(len(s))
			want := a.ExtendScore(q, s, qSeed, sSeed)
			got := a.ExtendScoreProf(prof, q, s, qSeed, sSeed)
			if !sameAln(got, want) {
				t.Fatalf("trial %d: ExtendScoreProf(qSeed=%d sSeed=%d %+v) = %+v, ExtendScore = %+v",
					trial, qSeed, sSeed, p, got, want)
			}
		}
	}
}

// TestExtendScoreProfSeedAtEdges drives the seed point onto every boundary
// combination, where one DP half degenerates to an empty sequence.
func TestExtendScoreProfSeedAtEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	a := defAligner()
	for trial := 0; trial < 40; trial++ {
		q := equivSeq(rng, 1+rng.Intn(12))
		s := equivSeq(rng, 1+rng.Intn(12))
		prof := matrix.NewProfile(matrix.Blosum62, q)
		for qSeed := 0; qSeed < len(q); qSeed++ {
			for sSeed := 0; sSeed < len(s); sSeed++ {
				want := a.ExtendScore(q, s, qSeed, sSeed)
				got := a.ExtendScoreProf(prof, q, s, qSeed, sSeed)
				if !sameAln(got, want) {
					t.Fatalf("qSeed=%d sSeed=%d: %+v vs %+v", qSeed, sSeed, got, want)
				}
			}
		}
	}
}

// TestExtendScoreProfMaxCells checks the cell budget trips identically in
// both kernels — the pruning bound is part of the band bookkeeping the fast
// path must reproduce exactly.
func TestExtendScoreProfMaxCells(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	q := equivSeq(rng, 400)
	s := equivSeq(rng, 400)
	p := DefaultParams()
	p.XDrop = 1 << 20 // effectively unbounded band
	p.MaxCells = 500
	a := NewAligner(matrix.Blosum62, p)
	prof := matrix.NewProfile(matrix.Blosum62, q)
	want := a.ExtendScore(q, s, 200, 200)
	got := a.ExtendScoreProf(prof, q, s, 200, 200)
	if !sameAln(got, want) {
		t.Fatalf("MaxCells clip diverges: %+v vs %+v", got, want)
	}
}

// FuzzExtendScoreProfEquivalence fuzzes the profile DP against the
// reference; run under `make fuzz` for a fixed budget.
func FuzzExtendScoreProfEquivalence(f *testing.F) {
	f.Add([]byte("MKVLAARTWQ"), []byte("MKVLHARTWQNDEC"), 2, 3, 38)
	f.Add([]byte("AAAA"), []byte("AAAAAA"), 0, 0, 5)
	for _, z := range zoneShapes() {
		f.Add(z.q, z.s, z.qSeed, z.sSeed, z.xDrop)
	}
	f.Fuzz(func(t *testing.T, qb, sb []byte, qSeed, sSeed, xDrop int) {
		if len(qb) == 0 || len(sb) == 0 || len(qb) > 512 || len(sb) > 512 {
			return
		}
		q := make([]alphabet.Code, len(qb))
		for i, b := range qb {
			q[i] = alphabet.Code(int(b) % alphabet.Size)
		}
		s := make([]alphabet.Code, len(sb))
		for i, b := range sb {
			s[i] = alphabet.Code(int(b) % alphabet.Size)
		}
		if qSeed < 0 || qSeed >= len(q) || sSeed < 0 || sSeed >= len(s) {
			return
		}
		if xDrop < 0 || xDrop > 1<<16 {
			return
		}
		p := DefaultParams()
		p.XDrop = xDrop
		a := NewAligner(matrix.Blosum62, p)
		prof := matrix.NewProfile(matrix.Blosum62, q)
		want := a.ExtendScore(q, s, qSeed, sSeed)
		got := a.ExtendScoreProf(prof, q, s, qSeed, sSeed)
		if !sameAln(got, want) {
			t.Fatalf("qSeed=%d sSeed=%d xDrop=%d: %+v vs %+v", qSeed, sSeed, xDrop, got, want)
		}
	})
}

// allocCases are homologous pairs of several lengths with the seed near the
// main diagonal: extensions whose bands run for many rows, so that a warm
// aligner has grown its row to the longest subject among them.
func allocCases() (cases []benchPair) {
	rng := rand.New(rand.NewSource(211))
	for _, n := range []int{40, 150, 400} {
		q := equivSeq(rng, n)
		s := homolog(rng, q, 6, 30)
		qSeed := n / 2
		cases = append(cases, benchPair{q, s, matrix.NewProfile(matrix.Blosum62, q), qSeed, min(qSeed, len(s)-1)})
	}
	return cases
}

// TestExtendScoreProfZeroAlloc pins stage three's steady state: once an
// aligner has run the extensions, running them again allocates nothing.
func TestExtendScoreProfZeroAlloc(t *testing.T) {
	a := defAligner()
	cases := allocCases()
	allocs := testing.AllocsPerRun(20, func() {
		for _, c := range cases {
			a.ExtendScoreProf(c.prof, c.q, c.s, c.qSeed, c.sSeed)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm ExtendScoreProf allocates %.1f objects per %d extensions, want 0", allocs, len(cases))
	}
}

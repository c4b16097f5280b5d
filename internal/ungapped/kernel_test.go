package ungapped

import (
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/matrix"
)

// randMatrix builds a random symmetric substitution matrix with scores in
// [-8, 11] — wider than BLOSUM62's range, so the equivalence property is
// exercised beyond the standard tables.
func randMatrix(t testing.TB, rng *rand.Rand) *matrix.Matrix {
	t.Helper()
	var table [alphabet.Size][alphabet.Size]int8
	for i := 0; i < alphabet.Size; i++ {
		for j := i; j < alphabet.Size; j++ {
			s := int8(rng.Intn(20) - 8)
			table[i][j], table[j][i] = s, s
		}
	}
	m, err := matrix.New("random", table)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randSeq(rng *rand.Rand, n int) []alphabet.Code {
	s := make([]alphabet.Code, n)
	for i := range s {
		s[i] = alphabet.Code(rng.Intn(alphabet.Size))
	}
	return s
}

// Extend is the oracle of the ungapped kernels: ExtendProfile's two-hit
// extension (the seed word, the left walk, and the right walk only when the
// left walk's best prefix is at least need long) written straight from its
// definition, scoring each cell through the matrix and keeping the best with
// a strict-greater update and an else-branch drop test. It holds for any
// xDrop and any length; the kernels must return exactly what it returns.
func Extend(m *matrix.Matrix, q, s []alphabet.Code, qOff, sOff, xDrop, need int) (ext Ext, reach bool) {
	// Seed word score.
	word := 0
	for k := 0; k < alphabet.W; k++ {
		word += m.Score(q[qOff+k], s[sOff+k])
	}
	// Left extension.
	leftBest, cum := 0, 0
	qStart := qOff
	for i, j := qOff-1, sOff-1; i >= 0 && j >= 0; i, j = i-1, j-1 {
		cum += m.Score(q[i], s[j])
		if cum > leftBest {
			leftBest = cum
			qStart = i
		} else if cum <= leftBest-xDrop {
			break
		}
	}
	reach = qOff-qStart >= need
	// Right extension.
	rightBest, cum := 0, 0
	qEnd := qOff + alphabet.W
	for i, j := qOff+alphabet.W, sOff+alphabet.W; reach && i < len(q) && j < len(s); i, j = i+1, j+1 {
		cum += m.Score(q[i], s[j])
		if cum > rightBest {
			rightBest = cum
			qEnd = i + 1
		} else if cum <= rightBest-xDrop {
			break
		}
	}
	return Ext{
		Score:  leftBest + word + rightBest,
		QStart: qStart,
		QEnd:   qEnd,
		SStart: qStart - qOff + sOff,
		SEnd:   qEnd - qOff + sOff,
	}, reach
}

// agreeKernels requires ExtendProfile and ExtendScore to return what the
// reference Extend returns for one seed: the same alignment, the same score
// and the same reach.
func agreeKernels(t testing.TB, m *matrix.Matrix, prof *matrix.Profile, q, s []alphabet.Code, qOff, sOff, xDrop, need int) {
	t.Helper()
	want, wantReach := Extend(m, q, s, qOff, sOff, xDrop, need)
	if got, reach := ExtendProfile(prof, s, qOff, sOff, xDrop, need); got != want || reach != wantReach {
		t.Fatalf("ExtendProfile(qOff=%d sOff=%d xDrop=%d need=%d) = %+v reach %v, Extend = %+v reach %v",
			qOff, sOff, xDrop, need, got, reach, want, wantReach)
	}
	if sc, reach := ExtendScore(prof, s, qOff, sOff, xDrop, need); sc != want.Score || reach != wantReach {
		t.Fatalf("ExtendScore(qOff=%d sOff=%d xDrop=%d need=%d) = %d reach %v, Extend scored %d reach %v",
			qOff, sOff, xDrop, need, sc, reach, want.Score, wantReach)
	}
}

// TestExtendProfileEquivalence is the property pinning the packed branchless
// profile kernel to the reference: for random matrices, sequences, seed
// offsets, X-drop values and needs, ExtendProfile must return exactly the
// Ext and reach that Extend returns, and ExtendScore its score and reach.
// Every part of the packed-word restructuring — the tie-breaking low bits,
// the sentinel, the arithmetic-shift decode of negative running scores, the
// near-best copy behind reach — is observable through some input here.
func TestExtendProfileEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 400; trial++ {
		m := randMatrix(t, rng)
		q := randSeq(rng, 4+rng.Intn(240))
		s := randSeq(rng, 4+rng.Intn(400))
		prof := matrix.NewProfile(m, q)
		xDrop := 1 + rng.Intn(40)
		for rep := 0; rep < 8; rep++ {
			qOff := rng.Intn(len(q) - alphabet.W + 1)
			sOff := rng.Intn(len(s) - alphabet.W + 1)
			need := rng.Intn(DefaultWindow - alphabet.W)
			if rep == 0 {
				need = 0
			}
			agreeKernels(t, m, prof, q, s, qOff, sOff, xDrop, need)
		}
	}
}

// TestExtendProfileEdgeOffsets drives the kernels at the sequence boundaries,
// where one or both extension loops run zero iterations, with needs at the
// left walk's length and one past it.
func TestExtendProfileEdgeOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	m := randMatrix(t, rng)
	for trial := 0; trial < 50; trial++ {
		q := randSeq(rng, alphabet.W+rng.Intn(8))
		s := randSeq(rng, alphabet.W+rng.Intn(8))
		prof := matrix.NewProfile(m, q)
		for qOff := 0; qOff+alphabet.W <= len(q); qOff++ {
			for sOff := 0; sOff+alphabet.W <= len(s); sOff++ {
				for _, xDrop := range []int{1, 5, 16} {
					for _, need := range []int{0, 1, qOff, qOff + 1} {
						agreeKernels(t, m, prof, q, s, qOff, sOff, xDrop, need)
					}
				}
			}
		}
	}
}

// TestExtendScoreEdgeSweep pins the score-only walk at every X-drop the
// engine could plausibly be configured with and every seed placement where a
// walker degenerates: qOff == 0 or sOff == 0 (empty left walk), the seed word
// ending at either sequence end (empty right walk), and offsets one short of
// those (one-cell walks), with needs of 0, 1, the left walk's longest and one
// past it. The oracle is the matrix-indexed reference, not
// ExtendProfile, so the two profile kernels cannot agree on a shared mistake.
func TestExtendScoreEdgeSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 12; trial++ {
		m := randMatrix(t, rng)
		q := randSeq(rng, alphabet.W+2+rng.Intn(60))
		s := randSeq(rng, alphabet.W+2+rng.Intn(90))
		prof := matrix.NewProfile(m, q)
		qEdge, sEdge := len(q)-alphabet.W, len(s)-alphabet.W
		qOffs := []int{0, 1, qEdge - 1, qEdge, rng.Intn(qEdge + 1)}
		sOffs := []int{0, 1, sEdge - 1, sEdge, rng.Intn(sEdge + 1)}
		for xDrop := 1; xDrop <= 40; xDrop++ {
			for _, qOff := range qOffs {
				for _, sOff := range sOffs {
					for _, need := range []int{0, 1, qOff, qOff + 1} {
						want, wantReach := Extend(m, q, s, qOff, sOff, xDrop, need)
						if got, reach := ExtendScore(prof, s, qOff, sOff, xDrop, need); got != want.Score || reach != wantReach {
							t.Fatalf("trial %d qOff=%d/%d sOff=%d/%d xDrop=%d need=%d: ExtendScore = %d reach %v, Extend scored %d reach %v",
								trial, qOff, len(q), sOff, len(s), xDrop, need, got, reach, want.Score, wantReach)
						}
					}
				}
			}
		}
	}
}

// TestExtendPositionsPast16Bits drives the kernels where a walk's packed
// position needs more than 16 bits: a 70 000-residue query and subject, with
// seeds whose left walk starts more than 0xFFFF cells from the sequence
// starts or whose right walk has more than 0xFFFF cells ahead of it. A
// position field of 16 bits carries into the score there.
func TestExtendPositionsPast16Bits(t *testing.T) {
	const n = 70000
	rng := rand.New(rand.NewSource(5))
	m := matrix.Blosum62
	q, s := randSeq(rng, n), randSeq(rng, n)
	prof := matrix.NewProfile(m, q)
	far := 0xFFFF + 1               // left walks from here have positions past 0xFFFF
	near := n - alphabet.W - 0xFFFF // right walks from below here do
	for i := 0; i < 2000; i++ {
		if i%2 == 0 {
			qOff, sOff := far+rng.Intn(n-alphabet.W-far+1), far+rng.Intn(n-alphabet.W-far+1)
			agreeKernels(t, m, prof, q, s, qOff, sOff, DefaultXDrop, rng.Intn(DefaultWindow-alphabet.W))
		} else {
			agreeKernels(t, m, prof, q, s, rng.Intn(near), rng.Intn(near), DefaultXDrop, 0)
		}
	}
}

// FuzzExtendEquivalence fuzzes the profile kernels against the oracle: the
// fuzzer controls both sequences, the number of times each is repeated
// (tiles, so that walks can run past 0xFFFF cells), the seed offsets, the
// X-drop and the need, and Extend, ExtendProfile and ExtendScore must agree
// on score, coordinates and reach. Run under `make fuzz` for a fixed budget.
func FuzzExtendEquivalence(f *testing.F) {
	f.Add([]byte("MKVLAARTWQ"), []byte("MKVLHARTWQNDEC"), 1, 2, 3, 16, 0)
	f.Add([]byte("AAAAAAA"), []byte("AAAAAAAAAA"), 1, 0, 0, 1, 0)
	f.Add([]byte("WWWCCCHHHMMM"), []byte("WWWCCCHHHMMM"), 1, 4, 4, 7, 2)
	// A need beyond the left walk (qOff 5 leaves 5 residues), and one the
	// X-drop cuts off first: W against C drops 2 a cell, 4 cells before 9.
	f.Add([]byte("MKVLAHHHRTWQ"), []byte("MKVLAHHHRTWQ"), 1, 5, 5, 16, 6)
	f.Add([]byte("WWWWWWWWWWHHHKLM"), []byte("CCCCCCCCCCHHHKLM"), 1, 10, 10, 8, 9)
	// 70 000 residues a side: the left walk starts 69 002 cells from the
	// sequence starts.
	f.Add([]byte("ARNDCQEGHILKMFPSTWYV"), []byte("ARNDCQEGHILKMFPSTWYVA"), 3500, 69002, 69002, 16, 0)
	m := matrix.Blosum62
	f.Fuzz(func(t *testing.T, qb, sb []byte, tiles, qOff, sOff, xDrop, need int) {
		if len(qb) < alphabet.W || len(sb) < alphabet.W {
			return
		}
		if len(qb) > 2048 || len(sb) > 4096 || tiles < 1 || tiles > 1<<17 || len(qb)*tiles > 1<<17 || len(sb)*tiles > 1<<17 {
			return
		}
		q := make([]alphabet.Code, len(qb)*tiles)
		for i := range q {
			q[i] = alphabet.Code(int(qb[i%len(qb)]) % alphabet.Size)
		}
		s := make([]alphabet.Code, len(sb)*tiles)
		for i := range s {
			s[i] = alphabet.Code(int(sb[i%len(sb)]) % alphabet.Size)
		}
		if qOff < 0 || qOff+alphabet.W > len(q) || sOff < 0 || sOff+alphabet.W > len(s) {
			return
		}
		if xDrop < 1 || xDrop > 1<<20 || need < 0 || need > 1<<20 {
			return
		}
		agreeKernels(t, m, matrix.NewProfile(m, q), q, s, qOff, sOff, xDrop, need)
	})
}

package gapped

import (
	"fmt"
	"slices"

	"repro/internal/alphabet"
	"repro/internal/matrix"
)

// TracebackProf re-aligns with traceback — stage four — an alignment that
// ExtendScoreProf scored: pre must be what ExtendScoreProf returned for the
// same prof, q, s and seed point. It runs the same DP kernel with the rows
// kept, each half only as far as the endpoint pre names for it (see
// extendHalfProf), and walks the kept rows back from there. Span and
// operations are those of the unbounded extension; Score is the halves' sum
// plus the seam correction below, so it can exceed pre.Score by one GapOpen.
func (a *Aligner) TracebackProf(prof *matrix.Profile, q, s []alphabet.Code, qSeed, sSeed int, pre Alignment) Alignment {
	// The backward half first: its walk runs from the alignment's start to
	// the seed, which is the order the operations are reported in.
	a.ops = a.ops[:0]
	a.srev = reverseInto(a.srev[:0], s[:sSeed])
	bScore, bq, bs := a.tracebackHalf(prof, qSeed-1, -1, qSeed, a.srev, qSeed-pre.QStart, sSeed-pre.SStart)
	nb := len(a.ops)
	fScore, fq, fs := a.tracebackHalf(prof, qSeed, +1, len(q)-qSeed, s[sSeed:], pre.QEnd-qSeed, pre.SEnd-sSeed)
	slices.Reverse(a.ops[nb:])

	score := fScore + bScore
	// Seam correction: each half charges a gap open for a run touching the
	// seed point, but if both halves' paths meet the seam with the same gap
	// type, the stitched alignment has ONE run there and is genuinely worth
	// one gap open more than the halves' sum. (ExtendScoreProf keeps the
	// uncorrected value — a valid lower bound, like BLAST's preliminary
	// gapped score vs its traceback score.)
	if nb > 0 && nb < len(a.ops) && a.ops[nb-1] == a.ops[nb] && a.ops[nb] != OpMatch {
		score += a.P.GapOpen
	}
	ops := make([]EditOp, len(a.ops))
	copy(ops, a.ops)
	return Alignment{
		Score:  score,
		QStart: qSeed - bq,
		QEnd:   qSeed + fq,
		SStart: sSeed - bs,
		SEnd:   sSeed + fs,
		Ops:    ops,
	}
}

// tracebackHalf runs one half with its rows kept, up to the endpoint
// (ki, kj) the score pass found for it, and appends to a.ops the operations
// from the half's best cell back to its origin (0,0) — last operation first.
// A half that ends where it starts (ki == 0: no cell beat the origin) has no
// operations and runs no DP at all.
func (a *Aligner) tracebackHalf(prof *matrix.Profile, rowBase, rowStride, qLen int, s []alphabet.Code, ki, kj int) (best int, bq, bs int) {
	if ki == 0 {
		return 0, 0, 0
	}
	best, bq, bs = a.extendHalfProf(prof, rowBase, rowStride, qLen, s, true, ki, kj)

	// The kernel stores no E. Where a cell's H did not come down the
	// diagonal, E(i,j) == H(i,j) is decided by looking left along the kept
	// row for the cell the gap opened from: E(i,j) is the maximum over k < j
	// of H(i,k) - open - ext*(j-k), and the nearest k that attains H(i,j) is
	// the one the reference's cell-by-cell walk stops at (it prefers opening
	// to extending at every step). F is stored, because the next row needs it.
	openExt := int32(a.P.GapOpen + a.P.GapExtend)
	ext := int32(a.P.GapExtend)
	i, j := bq, bs
	inF := false // arrived down a query gap: the cell's F, not its H, is on the path
	for i > 0 {
		row, up := &a.kept[i], &a.kept[i-1]
		c := row.cells[j-row.lo]
		if !inF {
			if dh := up.hAt(j - 1); dh > negInf && c.h == dh+int32(prof.Score(rowBase+(i-1)*rowStride, s[j-1])) {
				a.ops = append(a.ops, OpMatch)
				i, j = i-1, j-1
				continue
			}
			k, e := j-1, c.h+openExt // e is the H(i,k) that opens a gap worth H(i,j) at column j
			for k >= row.lo && row.cells[k-row.lo].h != e {
				k, e = k-1, e+ext
			}
			if k >= row.lo {
				for ; j > k; j-- {
					a.ops = append(a.ops, OpIns)
				}
				continue
			}
			if c.h != c.f {
				panic(fmt.Sprintf("gapped: traceback stuck at (%d,%d) h=%d f=%d", i, j, c.h, c.f))
			}
		}
		a.ops = append(a.ops, OpDel)
		inF = c.f != up.hAt(j)-openExt && c.f == up.cells[j-up.lo].f-ext
		i--
	}
	// Row 0 is the boundary gap: what is left of the subject is inserted.
	for ; j > 0; j-- {
		a.ops = append(a.ops, OpIns)
	}
	return best, bq, bs
}

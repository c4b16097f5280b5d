package gapped

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/matrix"
)

// The reference kernels: the matrix-indexed X-drop DP as first written, with
// an E array, bounds-checked row reads and one append per stored value. They
// were the serving kernels until the profile kernel took over stage three
// (ExtendScoreProf) and then stage four (TracebackProf); they stay here as
// the oracles every equivalence test and fuzzer compares against. None of
// this is linked into a non-test build.

// refAligner is the Aligner as it was while the reference kernels served:
// the scoring system plus their reusable rows.
type refAligner struct {
	M *matrix.Matrix
	P Params
	// reusable reversed-prefix buffers for the backward half
	qrev, srev []alphabet.Code
	// row pool for traceback-keeping extensions
	rowPool []*row
	rowUsed int
	rowRefs []*row
	// rolling rows of the score-only extension
	sprev, scur scoreRow
	// tbCells and tbRows count the DP cells computed and the rows kept by
	// every extendHalf so far — the work the bounded traceback is measured
	// against.
	tbCells, tbRows int
}

// reference returns a fresh reference aligner with a's scoring system; keep
// it to reuse its rows across calls, as the benchmarks do.
func (a *Aligner) reference() *refAligner { return &refAligner{M: a.M, P: a.P} }

// Extend is the reference traceback extension on a fresh reference aligner:
// the oracle TracebackProf is pinned to.
func (a *Aligner) Extend(q, s []alphabet.Code, qSeed, sSeed int) Alignment {
	return a.reference().Extend(q, s, qSeed, sSeed)
}

// ExtendScore is the reference score-only extension on a fresh reference
// aligner: the oracle ExtendScoreProf is pinned to.
func (a *Aligner) ExtendScore(q, s []alphabet.Code, qSeed, sSeed int) Alignment {
	return a.reference().ExtendScore(q, s, qSeed, sSeed)
}

// acquireRow returns a recycled (or new) row with empty cell slices.
func (a *refAligner) acquireRow(lo int) *row {
	if a.rowUsed == len(a.rowPool) {
		a.rowPool = append(a.rowPool, &row{})
	}
	r := a.rowPool[a.rowUsed]
	a.rowUsed++
	r.lo = lo
	r.h, r.e, r.f = r.h[:0], r.e[:0], r.f[:0]
	return r
}

// releaseRows returns every acquired row to the pool. Callers must not hold
// row pointers past this.
func (a *refAligner) releaseRows() { a.rowUsed = 0 }

// Extend computes the gapped extension through the seed point
// (qSeed, sSeed): the forward half aligns q[qSeed:] with s[sSeed:], the
// backward half aligns the reversed prefixes, and the two halves are
// stitched. The seed residue pair itself belongs to the forward half.
func (a *refAligner) Extend(q, s []alphabet.Code, qSeed, sSeed int) Alignment {
	fScore, fq, fs, fOps := a.extendHalf(q[qSeed:], s[sSeed:])

	a.qrev = reverseInto(a.qrev[:0], q[:qSeed])
	a.srev = reverseInto(a.srev[:0], s[:sSeed])
	bScore, bq, bs, bOps := a.extendHalf(a.qrev, a.srev)

	ops := make([]EditOp, 0, len(bOps)+len(fOps))
	for i := len(bOps) - 1; i >= 0; i-- {
		ops = append(ops, bOps[i])
	}
	ops = append(ops, fOps...)
	score := fScore + bScore
	// Seam correction: each half charges a gap open for a run touching the
	// seed point, but if both halves' paths meet the seam with the same gap
	// type, the stitched alignment has ONE run there and is genuinely worth
	// one gap open more than the halves' sum. (ExtendScore keeps the
	// uncorrected value — a valid lower bound, like BLAST's preliminary
	// gapped score vs its traceback score.)
	if len(bOps) > 0 && len(fOps) > 0 && bOps[0] == fOps[0] && bOps[0] != OpMatch {
		score += a.P.GapOpen
	}
	return Alignment{
		Score:  score,
		QStart: qSeed - bq,
		QEnd:   qSeed + fq,
		SStart: sSeed - bs,
		SEnd:   sSeed + fs,
		Ops:    ops,
	}
}

// row stores one DP row's band for traceback.
type row struct {
	lo      int // first subject column in the band
	h, e, f []int32
}

func (r *row) at(j int) (h, e, f int32) {
	idx := j - r.lo
	if idx < 0 || idx >= len(r.h) {
		return negInf, negInf, negInf
	}
	return r.h[idx], r.e[idx], r.f[idx]
}

// extendHalf runs the X-drop affine DP anchored at (0,0) over prefixes of q
// and s, returning the best score, the (query, subject) lengths consumed at
// the best-scoring endpoint, and the traceback operations to reach it.
func (a *refAligner) extendHalf(q, s []alphabet.Code) (best int, bq, bs int, ops []EditOp) {
	openExt := int32(a.P.GapOpen + a.P.GapExtend)
	ext := int32(a.P.GapExtend)
	xdrop := int32(a.P.XDrop)

	rows := a.rowRefs[:0]
	defer func() {
		a.rowRefs = rows[:0]
		a.releaseRows()
	}()
	// Row 0: gaps along the subject.
	lo, hi := 0, len(s)+1
	r0 := a.acquireRow(0)
	bestScore := int32(0)
	for j := 0; j <= len(s); j++ {
		var h int32
		if j == 0 {
			h = 0
		} else {
			h = -openExt - ext*int32(j-1)
		}
		if h < bestScore-xdrop {
			hi = j
			break
		}
		r0.h = append(r0.h, h)
		r0.e = append(r0.e, h) // E(0,j) equals the gap score; E(0,0) unused
		r0.f = append(r0.f, negInf)
	}
	r0.e[0] = negInf
	rows = append(rows, r0)
	bi, bj := 0, 0
	cells := len(r0.h)

	for i := 1; i <= len(q) && lo < hi; i++ {
		prev := rows[i-1]
		cur := a.acquireRow(lo)
		newLo, newHi := -1, lo
		rowQ := q[i-1]
		mRow := a.M.Row(rowQ)
		for j := lo; j <= len(s); j++ {
			// E: gap consuming s_j (needs cell to the left in this row).
			e := int32(negInf)
			if j > cur.lo {
				hLeft := cur.h[j-1-cur.lo]
				eLeft := cur.e[j-1-cur.lo]
				e = maxI32(hLeft-openExt, eLeft-ext)
			}
			// F: gap consuming q_i (needs cell above).
			ph, _, pf := prev.at(j)
			f := maxI32(ph-openExt, pf-ext)
			// H: diagonal.
			h := int32(negInf)
			if j > 0 {
				dh, _, _ := prev.at(j - 1)
				if dh > negInf {
					h = dh + int32(mRow[s[j-1]])
				}
			}
			h = maxI32(h, maxI32(e, f))
			pruned := h < bestScore-xdrop
			if pruned {
				h = negInf
			} else {
				if newLo < 0 {
					newLo = j
				}
				newHi = j + 1
				if h > bestScore {
					bestScore = h
					bi, bj = i, j
				}
			}
			cur.h = append(cur.h, h)
			cur.e = append(cur.e, e)
			cur.f = append(cur.f, f)
			cells++
			// Beyond the previous row's band only E-chains feed new cells,
			// so the first dead cell there ends the row.
			if pruned && j >= hi {
				break
			}
		}
		rows = append(rows, cur)
		if newLo < 0 {
			break // entire row pruned
		}
		lo, hi = newLo, newHi
		if cells > a.P.MaxCells {
			break
		}
	}

	a.tbCells += cells
	a.tbRows += len(rows)
	// Traceback from (bi, bj).
	ops = a.traceback(rows, q, s, bi, bj)
	return int(bestScore), bi, bj, ops
}

func (a *refAligner) traceback(rows []*row, q, s []alphabet.Code, bi, bj int) []EditOp {
	openExt := int32(a.P.GapOpen + a.P.GapExtend)
	ext := int32(a.P.GapExtend)
	var rops []EditOp // reversed
	i, j := bi, bj
	state := byte('H')
	for i > 0 || j > 0 {
		h, e, f := rows[i].at(j)
		switch state {
		case 'H':
			switch {
			case i > 0 && j > 0 && func() bool {
				dh, _, _ := rows[i-1].at(j - 1)
				return dh > negInf && h == dh+int32(a.M.Score(q[i-1], s[j-1]))
			}():
				rops = append(rops, OpMatch)
				i, j = i-1, j-1
			case h == e:
				state = 'E'
			case h == f:
				state = 'F'
			default:
				// Row-0 boundary gap: remaining path is all insertions.
				if i == 0 {
					state = 'E'
					continue
				}
				panic(fmt.Sprintf("gapped: traceback stuck at (%d,%d) h=%d e=%d f=%d", i, j, h, e, f))
			}
		case 'E':
			rops = append(rops, OpIns)
			if j-1 >= rows[i].lo {
				hLeft, eLeft, _ := rows[i].at(j - 1)
				if i == 0 {
					// Row 0: chain of boundary insertions.
					j--
					if j == 0 {
						state = 'H'
					}
					continue
				}
				if e == hLeft-openExt {
					state = 'H'
				} else if e == eLeft-ext {
					state = 'E'
				} else {
					state = 'H'
				}
			} else {
				state = 'H'
			}
			j--
		case 'F':
			rops = append(rops, OpDel)
			ph, _, pf := rows[i-1].at(j)
			if f == ph-openExt {
				state = 'H'
			} else if f == pf-ext {
				state = 'F'
			} else {
				state = 'H'
			}
			i--
		}
	}
	// Reverse in place.
	for l, r := 0, len(rops)-1; l < r; l, r = l+1, r-1 {
		rops[l], rops[r] = rops[r], rops[l]
	}
	return rops
}

// ExtendScore is the score-only form of Extend: the same X-drop affine DP
// through the seed point, but with two rolling rows and no traceback
// storage. BLAST's stage three runs exactly this (gapped extension without
// traceback); stage four re-aligns only the top-scoring alignments with
// traceback (Section II-A). The returned score and span are identical to
// Extend's for the same inputs.
func (a *refAligner) ExtendScore(q, s []alphabet.Code, qSeed, sSeed int) Alignment {
	fScore, fq, fs := a.extendHalfScore(q[qSeed:], s[sSeed:])

	a.qrev = reverseInto(a.qrev[:0], q[:qSeed])
	a.srev = reverseInto(a.srev[:0], s[:sSeed])
	bScore, bq, bs := a.extendHalfScore(a.qrev, a.srev)

	return Alignment{
		Score:  fScore + bScore,
		QStart: qSeed - bq,
		QEnd:   qSeed + fq,
		SStart: sSeed - bs,
		SEnd:   sSeed + fs,
	}
}

// scoreRow is one rolling DP row for the score-only extension.
type scoreRow struct {
	lo      int
	h, e, f []int32
}

func (r *scoreRow) at(j int) (h, e, f int32) {
	idx := j - r.lo
	if idx < 0 || idx >= len(r.h) {
		return negInf, negInf, negInf
	}
	return r.h[idx], r.e[idx], r.f[idx]
}

func (r *scoreRow) reset(lo int) {
	r.lo = lo
	r.h, r.e, r.f = r.h[:0], r.e[:0], r.f[:0]
}

// extendHalfScore mirrors extendHalf without keeping rows: only the
// previous row is retained. The iteration order, band bookkeeping, pruning
// decisions, and best-cell tie-breaking (first maximum encountered wins)
// are identical to extendHalf, so the two functions always report the same
// score and endpoint.
func (a *refAligner) extendHalfScore(q, s []alphabet.Code) (best int, bq, bs int) {
	openExt := int32(a.P.GapOpen + a.P.GapExtend)
	ext := int32(a.P.GapExtend)
	xdrop := int32(a.P.XDrop)

	// The rolling rows live on the aligner so repeated extensions reuse
	// their capacity instead of growing fresh slices every call.
	prev, cur := &a.sprev, &a.scur
	// Row 0.
	lo, hi := 0, len(s)+1
	prev.reset(0)
	bestScore := int32(0)
	for j := 0; j <= len(s); j++ {
		var h int32
		if j == 0 {
			h = 0
		} else {
			h = -openExt - ext*int32(j-1)
		}
		if h < bestScore-xdrop {
			hi = j
			break
		}
		prev.h = append(prev.h, h)
		prev.e = append(prev.e, h)
		prev.f = append(prev.f, negInf)
	}
	prev.e[0] = negInf
	bi, bj := 0, 0
	cells := len(prev.h)

	for i := 1; i <= len(q) && lo < hi; i++ {
		cur.reset(lo)
		newLo, newHi := -1, lo
		mRow := a.M.Row(q[i-1])
		for j := lo; j <= len(s); j++ {
			e := int32(negInf)
			if j > cur.lo {
				hLeft := cur.h[j-1-cur.lo]
				eLeft := cur.e[j-1-cur.lo]
				e = maxI32(hLeft-openExt, eLeft-ext)
			}
			ph, _, pf := prev.at(j)
			f := maxI32(ph-openExt, pf-ext)
			h := int32(negInf)
			if j > 0 {
				dh, _, _ := prev.at(j - 1)
				if dh > negInf {
					h = dh + int32(mRow[s[j-1]])
				}
			}
			h = maxI32(h, maxI32(e, f))
			pruned := h < bestScore-xdrop
			if pruned {
				h = negInf
			} else {
				if newLo < 0 {
					newLo = j
				}
				newHi = j + 1
				if h > bestScore {
					bestScore = h
					bi, bj = i, j
				}
			}
			cur.h = append(cur.h, h)
			cur.e = append(cur.e, e)
			cur.f = append(cur.f, f)
			cells++
			if pruned && j >= hi {
				break
			}
		}
		prev, cur = cur, prev
		if newLo < 0 {
			break
		}
		lo, hi = newLo, newHi
		if cells > a.P.MaxCells {
			break
		}
	}
	return int(bestScore), bi, bj
}

package gapped

import (
	"repro/internal/alphabet"
	"repro/internal/matrix"
)

// ExtendScoreProf is the score-only gapped extension through the seed point
// (qSeed, sSeed) — stage three: the forward half aligns q[qSeed:] with
// s[sSeed:], the backward half the reversed prefixes, and the halves' scores
// and endpoints are summed (the seed residue pair belongs to the forward
// half). The DP row's score lookup comes straight from the flattened PSSM row
// for the absolute query position, so the inner loop never touches the query
// sequence or the two-dimensional matrix. prof must be built from this
// aligner's matrix and the full query q.
func (a *Aligner) ExtendScoreProf(prof *matrix.Profile, q, s []alphabet.Code, qSeed, sSeed int) Alignment {
	// Forward half: DP row i scores query residue qSeed+i-1.
	fScore, fq, fs := a.extendHalfProf(prof, qSeed, +1, len(q)-qSeed, s[sSeed:], false, -1, -1)

	// Backward half: the subject prefix is reversed, and DP row i scores
	// query residue qSeed-i (the reversed-prefix row order).
	a.srev = reverseInto(a.srev[:0], s[:sSeed])
	bScore, bq, bs := a.extendHalfProf(prof, qSeed-1, -1, qSeed, a.srev, false, -1, -1)

	return Alignment{
		Score:  fScore + bScore,
		QStart: qSeed - bq,
		QEnd:   qSeed + fq,
		SStart: sSeed - bs,
		SEnd:   sSeed + fs,
	}
}

// halfRow is one DP row of the kernel: only H and F survive a row boundary
// (E is consumed by the very next cell of the same row, so the kernel carries
// it in a register instead of storing it; see extendHalfProf).
type halfRow struct {
	lo   int
	h, f []int32
}

// hAt returns H at column j, negInf outside the row's band.
func (r *halfRow) hAt(j int) int32 {
	if k := j - r.lo; k >= 0 && k < len(r.h) {
		return r.h[k]
	}
	return negInf
}

// keptRow returns the storage of kept row i with room for n cells: what the
// slabs have left after prev, the row before it (nil for row 0).
func (a *Aligner) keptRow(i int, prev *halfRow, n int) *halfRow {
	if i == len(a.kept) {
		a.kept = append(a.kept, new(halfRow))
	}
	r := a.kept[i]
	if prev == nil {
		r.h, r.f = a.slabH[:0], a.slabF[:0]
	} else {
		r.h, r.f = prev.h[len(prev.h):], prev.f[len(prev.f):]
	}
	if cap(r.h) < n {
		// Used up: a larger pair, which the next run starts in. The rows
		// already written stay where they are and keep the old pair alive.
		size := 2*len(a.slabH) + n
		a.slabH, a.slabF = make([]int32, size), make([]int32, size)
		r.h, r.f = a.slabH[:0], a.slabF[:0]
	}
	return r
}

// extendHalfProf is the one DP kernel: the X-drop affine extension anchored
// at (0,0) over prefixes of a query segment and of s, returning the best
// score and the (query, subject) lengths consumed at the first cell, in
// row-major order, that reaches it. DP row i (1-based) scores against profile
// row rowBase + (i-1)*rowStride, and each row is walked as three zones, so
// that the loop that runs for nearly every cell tests nothing the row's
// geometry already decides:
//
//	column 0   only while the band still starts at the subject's start: no
//	           diagonal and no left neighbour, H comes down a gap or is dead
//	interior   the columns the previous row covers (halfScan.interior)
//	tail       the columns past the previous row's last cell: nothing above,
//	           so F is a constant, H arrives along the row's own E chain and
//	           the first dead cell ends the row (halfScan.tail)
//
// The same-row H/E and the diagonal H feeding cell j+1 are carried in
// locals, E is never stored (no cell outside the current row reads it), the
// prune threshold best-xdrop is a local that moves only when the best does,
// and the next band [lo, hi) is read back from the stored row — a stored H is
// negInf exactly when the cell was pruned — instead of being tracked per
// cell.
//
// Both stages run it, and differ in what happens to a row once the next one
// is written. Stage three (keep false) needs the score and endpoint only and
// alternates between two rows. Stage four (keep true) leaves every row in
// a.kept for the traceback walk, and names the endpoint (ki, kj) that stage
// three found for this half: once row ki is written with the running best at
// (ki, kj) the run is over, because rows 0..ki are the rows the score pass
// computed — same order, same running best, hence the same pruning — and the
// score pass went on to show that no later cell beats (ki, kj), while the
// walk reads nothing below the row it starts in. With any other (ki, kj)
// (stage three passes -1, -1) the test never holds and the run ends where
// the X-drop ends it.
//
// Every cell stores the H and F that the reference kernels store
// (reference_test.go), so band, tie-break and the MaxCells trip are the same
// and they stay byte-identical (profile_equiv_test.go, zones_test.go,
// traceback_test.go). One guard of the reference is gone: the diagonal is
// added without asking whether it is negInf. An unreachable diagonal then
// yields negInf plus a substitution score instead of negInf, which changes
// nothing because both are below the threshold and a pruned cell stores
// negInf. That holds while XDrop < -negInf-128 (about 5e8; the engine's is
// 38).
func (a *Aligner) extendHalfProf(prof *matrix.Profile, rowBase, rowStride, qLen int, s []alphabet.Code, keep bool, ki, kj int) (best int, bq, bs int) {
	sc := halfScan{
		openExt: int32(a.P.GapOpen + a.P.GapExtend),
		ext:     int32(a.P.GapExtend),
		xdrop:   int32(a.P.XDrop),
	}
	sc.thresh = sc.best - sc.xdrop

	// Row 0: gaps along the subject. The reference also seeds an E row here;
	// E never crosses a row boundary, so there is nothing to store.
	lo, hi := 0, len(s)+1
	prev := &a.roll[0]
	if keep {
		prev = a.keptRow(0, nil, len(s)+1)
	}
	prev.lo, prev.h, prev.f = 0, prev.h[:0], prev.f[:0]
	for j := 0; j <= len(s); j++ {
		var h int32
		if j == 0 {
			h = 0
		} else {
			h = -sc.openExt - sc.ext*int32(j-1)
		}
		if h < sc.thresh {
			hi = j
			break
		}
		prev.h = append(prev.h, h)
		prev.f = append(prev.f, negInf)
	}
	cells := len(prev.h)

	for i := 1; i <= qLen && lo < hi; i++ {
		// The row is pre-sized to the widest it can get (j runs lo..len(s))
		// and filled by index, trimmed to the cells actually written after
		// the zones — append's length bookkeeping and growth check cost two
		// stores per cell in a loop this hot.
		rowMax := len(s) + 1 - lo
		cur := &a.roll[i&1]
		if keep {
			cur = a.keptRow(i, prev, rowMax)
		} else if cap(cur.h) < rowMax {
			cur.h = make([]int32, rowMax)
			cur.f = make([]int32, rowMax)
		}
		curH, curF := cur.h[:rowMax], cur.f[:rowMax]
		mRow := (*[alphabet.Size]int8)(prof.Row(rowBase + (i-1)*rowStride))

		// The previous row from column lo on. It starts at or before lo and
		// reaches at least hi-1 (lo and hi-1 are its first and last live
		// columns), so prevH is never empty and hi-lo <= len(prevH).
		off := lo - prev.lo
		prevH, prevF := prev.h[off:], prev.f[off:]
		sc.row = i
		sc.carryH, sc.carryE, sc.diagH = negInf, negInf, negInf
		if off > 0 {
			sc.diagH = prev.h[off-1]
		}
		n := 0 // cells written so far; cell n is column lo+n

		if lo == 0 {
			// Column 0. hi > 0, so a dead cell here cannot end the row.
			f := maxI32(prevH[0]-sc.openExt, prevF[0]-sc.ext)
			h := f
			if h < sc.thresh {
				h = negInf
			} else if h > sc.best {
				sc.best, sc.thresh = h, h-sc.xdrop
				sc.bi, sc.bj = i, 0
			}
			curH[0], curF[0] = h, f
			sc.carryH, sc.diagH = h, prevH[0]
			n = 1
		}

		sc.col = lo + n
		m, ended := sc.interior(prevH[n:], prevF[n:], s[lo+n-1:], curH[n:], curF[n:], mRow, hi-lo-n)
		n += m
		if !ended {
			sc.col = lo + n
			n += sc.tail(s[lo+n-1:], curH[n:], curF[n:], mRow)
		}

		cells += n
		cur.lo, cur.h, cur.f = lo, curH[:n], curF[:n]
		prev = cur
		if i == ki && sc.bi == ki && sc.bj == kj {
			break // the endpoint the score pass found: nothing below is read
		}

		// The next band is the span of live cells in the row just written.
		live := prev.h
		first := 0
		for first < len(live) && live[first] == negInf {
			first++
		}
		if first == len(live) {
			break // entire row pruned
		}
		last := len(live) - 1
		for live[last] == negInf {
			last--
		}
		lo, hi = lo+first, lo+last+1
		if cells > a.P.MaxCells {
			break
		}
	}
	return int(sc.best), sc.bi, sc.bj
}

// halfScan is what extendHalfProf hands from cell to cell and from zone
// to zone of a row: the extension's constants, the carries, the running best
// with its prune threshold and endpoint, and where the zone being filled
// starts.
type halfScan struct {
	openExt, ext, xdrop int32
	carryH, carryE      int32 // H and E of the cell to the left
	diagH               int32 // previous row's H one column to the left
	best, thresh        int32 // thresh == best-xdrop
	bi, bj              int   // row and column of best
	row, col            int   // the row being filled; column of the zone's cell 0
}

// interior fills the cells of one row that have a cell above them: cell k
// reads ph[k]/pf[k] (the previous row's H and F in its column) and ss[k]
// (the subject residue its diagonal consumes) and stores ch[k]/cf[k]. A dead
// cell at k >= stop — at or past the previous row's last live column — ends
// the row. It returns the number of cells written and whether the row ended.
//
// The zone loops are functions of their own, kept out of line, for the
// reason ungapped's walkers are: inside extendHalfProf the register
// allocator has some thirty live values to place and spills the carries of
// this loop; here it has the loop's own. The prune is a conditional move
// (h below thresh becomes negInf and is stored like any other), so the only
// branches a cell takes are the rare new best and the row-end test, and a
// band edge costs no misprediction.
//
//go:noinline
func (sc *halfScan) interior(ph, pf []int32, ss []alphabet.Code, ch, cf []int32, mRow *[alphabet.Size]int8, stop int) (n int, ended bool) {
	openExt, ext := sc.openExt, sc.ext
	carryH, carryE, diagH := sc.carryH, sc.carryE, sc.diagH
	best, thresh := sc.best, sc.thresh
	pf, ss, ch, cf = pf[:len(ph)], ss[:len(ph)], ch[:len(ph)], cf[:len(ph)]
	n = len(ph)
	for k, p := range ph {
		e := maxI32(carryH-openExt, carryE-ext)
		f := maxI32(p-openExt, pf[k]-ext)
		h := maxI32(diagH+int32(mRow[ss[k]]), maxI32(e, f))
		diagH = p
		carryE = e
		if h < thresh {
			h = negInf
		}
		ch[k], cf[k] = h, f
		carryH = h
		if h > best {
			best, thresh = h, h-sc.xdrop
			sc.bi, sc.bj = sc.row, sc.col+k
		}
		if k >= stop && h == negInf {
			n, ended = k+1, true
			break
		}
	}
	sc.carryH, sc.carryE, sc.diagH = carryH, carryE, diagH
	sc.best, sc.thresh = best, thresh
	return n, ended
}

// tail fills the cells past the previous row's end, one per residue of ss,
// until the first dead one, and returns how many it wrote. Only its first
// cell has a diagonal (sc.diagH, the previous row's last H).
//
//go:noinline
func (sc *halfScan) tail(ss []alphabet.Code, ch, cf []int32, mRow *[alphabet.Size]int8) int {
	openExt, ext := sc.openExt, sc.ext
	carryH, carryE, diagH := sc.carryH, sc.carryE, sc.diagH
	best, thresh := sc.best, sc.thresh
	// F of a cell with no cell above it.
	f := maxI32(negInf-openExt, negInf-ext)
	ch, cf = ch[:len(ss)], cf[:len(ss)]
	n := len(ss)
	for k, c := range ss {
		e := maxI32(carryH-openExt, carryE-ext)
		h := maxI32(diagH+int32(mRow[c]), maxI32(e, f))
		diagH = negInf
		carryE = e
		if h < thresh {
			h = negInf
		}
		ch[k], cf[k] = h, f
		carryH = h
		if h > best {
			best, thresh = h, h-sc.xdrop
			sc.bi, sc.bj = sc.row, sc.col+k
		}
		if h == negInf {
			n = k + 1
			break
		}
	}
	sc.best, sc.thresh = best, thresh
	return n
}

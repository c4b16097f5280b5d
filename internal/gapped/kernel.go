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

// cell is one column of a DP row: the H and F the row below reads (E never
// crosses a row boundary, so no cell stores it).
type cell struct{ h, f int32 }

// dead is a column no band covers: what the reference kernels read outside
// the row above, and what every cell of Aligner.row holds past the row last
// written.
var dead = cell{negInf, negInf}

// keptRow is one DP row kept for the traceback walk: its cells from column
// lo on.
type keptRow struct {
	lo    int
	cells []cell
}

// hAt returns H at column j, negInf outside the row's band.
func (r *keptRow) hAt(j int) int32 {
	if k := j - r.lo; k >= 0 && k < len(r.cells) {
		return r.cells[k].h
	}
	return negInf
}

// rowFor returns the DP row for a subject of n residues: one cell per column
// 0..n, every one dead. The row keeps its capacity across extensions, and
// extendHalfProf leaves it dead again when it returns.
func (a *Aligner) rowFor(n int) []cell {
	if len(a.row) <= n {
		a.row = make([]cell, max(n+1, 2*len(a.row)))
		for j := range a.row {
			a.row[j] = dead
		}
	}
	return a.row[:n+1]
}

// keepRow appends a copy of cs, a finished row from column lo on, to a.kept,
// its cells carved from a.slab. A slab that runs out moves to a larger one;
// the rows already kept stay where they are and keep the old one alive, so
// nothing is allocated once the slab has grown to the largest run.
func (a *Aligner) keepRow(lo int, cs []cell) {
	n := len(a.slab)
	a.slab = append(a.slab, cs...)
	a.kept = append(a.kept, keptRow{lo, a.slab[n:len(a.slab):len(a.slab)]})
}

// extendHalfProf is the one DP kernel: the X-drop affine extension anchored
// at (0,0) over prefixes of a query segment and of s, returning the best
// score and the (query, subject) lengths consumed at the first cell, in
// row-major order, that reaches it. DP row i (1-based) scores against profile
// row rowBase + (i-1)*rowStride.
//
// There is one DP row, Aligner.row, indexed by column and updated in place
// (NCBI's Blast_SemiGappedAlign keeps its BlastGapDP array the same way):
// cell j is read — the H and F of the row above — before it is overwritten,
// and that H is carried in a register as cell j+1's diagonal. Each row is
// walked as two zones, so that the loop that runs for nearly every cell
// tests nothing the row's geometry already decides:
//
//	column 0   only while the band still starts at the subject's start: no
//	           diagonal and no left neighbour, H comes down a gap or is dead
//	the rest   halfScan.fill, from the band's first column to the first dead
//	           cell at or past the row above's last live column. Past the
//	           row above's last stored cell (the tail) every cell reads dead,
//	           so F is a constant, H arrives along the row's own E chain and
//	           the first dead cell ends the row, as in the reference.
//
// That needs every cell past the last stored one to be dead: after each row
// the cells the row above stored beyond this row's end are reset, and
// before returning every cell the run wrote is.
//
// E is not the reference's max(Hpruned[j] - (open+ext), E[j] - ext) but
// max(D[j] - (open+ext), E[j] - ext), D = max(diag + score, F): H = max(D, E)
// and open >= 0 make the two equal wherever either reaches the prune
// threshold, and below it a cell is pruned whichever E it sees. The
// threshold only rises, so a value below it stays below it: every stored H
// and F is the reference's (reference_test.go), and band, tie-break and the
// MaxCells trip are the same and stay byte-identical (profile_equiv_test.go,
// zones_test.go, traceback_test.go). One guard of the reference is gone
// too: the diagonal is added without asking whether it is negInf, which
// yields negInf plus a substitution score instead of negInf, below the
// threshold either way while XDrop < -negInf-128 (about 5e8; the engine's is
// 38). The prune threshold best-xdrop is kept beside the best and moves only
// when the best does, and the next band [lo, hi) is read back from the row
// — a stored H is negInf exactly when the cell was pruned.
//
// Both stages run it, and differ in what happens to a finished row. Stage
// three (keep false) needs the score and endpoint only. Stage four (keep
// true) copies every row to a.kept for the traceback walk, and names the
// endpoint (ki, kj) that stage three found for this half: once row ki is
// written with the running best at (ki, kj) the run is over, because rows
// 0..ki are the rows the score pass computed — same order, same running
// best, hence the same pruning — and the score pass went on to show that no
// later cell beats (ki, kj), while the walk reads nothing below the row it
// starts in. With any other (ki, kj) (stage three passes -1, -1) the test
// never holds and the run ends where the X-drop ends it.
func (a *Aligner) extendHalfProf(prof *matrix.Profile, rowBase, rowStride, qLen int, s []alphabet.Code, keep bool, ki, kj int) (best int, bq, bs int) {
	sc := halfScan{
		openExt: int32(a.P.GapOpen + a.P.GapExtend),
		ext:     int32(a.P.GapExtend),
		xdrop:   int32(a.P.XDrop),
	}
	sc.thresh = sc.best - sc.xdrop
	row := a.rowFor(len(s))
	if keep {
		a.kept, a.slab = a.kept[:0], a.slab[:0]
	}

	// Row 0: gaps along the subject. end is one past the last cell the row
	// above stored, hi one past its last live one.
	end := 0
	for h := int32(0); end < len(row) && h >= sc.thresh; h = -sc.openExt - sc.ext*int32(end-1) {
		row[end] = cell{h, negInf}
		end++
	}
	if keep {
		a.keepRow(0, row[:end])
	}
	lo, hi := 0, end
	cells := end

	for i, prevLo := 1, 0; i <= qLen && lo < hi; i++ {
		mRow := (*[alphabet.Size]int8)(prof.Row(rowBase + (i-1)*rowStride))
		sc.row = i
		sc.e, sc.diag = negInf, negInf
		j := lo // the first column fill writes
		if lo == 0 {
			// Column 0. hi > 0, so a dead cell here cannot end the row.
			c := &row[0]
			f := maxI32(c.h-sc.openExt, c.f-sc.ext)
			h := f
			if h < sc.thresh {
				h = negInf
			} else if h > sc.best {
				sc.best, sc.thresh = h, h-sc.xdrop
				sc.bi, sc.bj = i, 0
			}
			sc.diag, sc.e = c.h, f-sc.openExt
			*c = cell{h, f}
			j = 1
		} else if lo > prevLo {
			sc.diag = row[lo-1].h
		}
		sc.col = j
		rowEnd := j + sc.fill(row[j:], s[j-1:], mRow, hi-j)
		for k := rowEnd; k < end; k++ {
			row[k] = dead
		}
		end = rowEnd

		cells += end - lo
		if keep {
			a.keepRow(lo, row[lo:end])
		}
		if i == ki && sc.bi == ki && sc.bj == kj {
			break // the endpoint the score pass found: nothing below is read
		}

		// The next band is the span of live cells in the row just written.
		live := row[lo:end]
		first := 0
		for first < len(live) && live[first].h == negInf {
			first++
		}
		if first == len(live) {
			break // entire row pruned
		}
		last := len(live) - 1
		for live[last].h == negInf {
			last--
		}
		prevLo = lo
		lo, hi = lo+first, lo+last+1
		if cells > a.P.MaxCells {
			break
		}
	}
	for k := range row[:end] {
		row[k] = dead
	}
	return int(sc.best), sc.bi, sc.bj
}

// halfScan is what extendHalfProf hands to fill: the extension's constants,
// the carries into the row's next cell, the running best with its prune
// threshold and endpoint, and where the cells being filled start.
type halfScan struct {
	openExt, ext, xdrop int32
	e, diag             int32 // E of the next cell, and the H above-left of it
	best, thresh        int32 // thresh == best-xdrop
	bi, bj              int   // row and column of best
	row, col            int   // the row being filled; column of cs[0]
}

// fill computes the cells of one row from cs[0] on, cs[k] scoring the
// subject residue ss[k] against mRow, until the first dead cell at
// k >= stop — at or past the row above's last live column — or the end of
// cs, and returns the number of cells written. Each cell reads its H and F
// of the row above from cs[k] and then overwrites them.
//
// It is a function of its own, kept out of line, for the reason ungapped's
// walkers are: inside extendHalfProf the register allocator has the whole
// row's bookkeeping live and spills this loop's carries. For the same
// reason the running best and threshold are read from *sc each cell, a
// load the new-best test folds in, and the profile row is copied to the
// stack: what is left for the registers is one cell slice, the subject, the
// two gap costs, E, the diagonal, the index and stop. The prune is a
// conditional move (h below thresh becomes negInf and is stored like any
// other), so the only branches a cell takes are the rare new best and the
// row-end test, and a band edge costs no misprediction.
//
//go:noinline
func (sc *halfScan) fill(cs []cell, ss []alphabet.Code, mRow *[alphabet.Size]int8, stop int) int {
	var m [32]int8 // a power of two: ss[k]&31 needs no bounds check
	copy(m[:], mRow[:])
	openExt, ext := sc.openExt, sc.ext
	e, diag := sc.e, sc.diag
	ss = ss[:len(cs)]
	for k := range cs {
		c := &cs[k]
		up := c.h
		f := maxI32(up-openExt, c.f-ext)
		d := maxI32(diag+int32(m[ss[k]&31]), f)
		h := maxI32(d, e)
		e = maxI32(d-openExt, e-ext)
		diag = up
		if h < sc.thresh {
			h = negInf
		}
		*c = cell{h, f}
		if h > sc.best {
			sc.best, sc.thresh = h, h-sc.xdrop
			sc.bi, sc.bj = sc.row, sc.col+k
		}
		if k >= stop && h == negInf {
			return k + 1
		}
	}
	return len(cs)
}

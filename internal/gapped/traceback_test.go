package gapped

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/matrix"
)

// Stage four is the stage-three kernel run again with its rows kept, cut off
// at the endpoint stage three found, and walked back without a stored E. The
// tests here pin all of that to the reference traceback (reference_test.go):
// same score, span and operations, half by half and stitched, with the work
// counted — a bounded half keeps exactly ki+1 rows.

// half is one direction of an extension in both kernels' terms: the profile
// rows the kept-row kernel scores against and the query segment the reference
// reads, over the same subject segment.
type half struct {
	rowBase, rowStride int
	q, s               []alphabet.Code
}

// halvesOf splits an extension through (qSeed, sSeed) the way
// ExtendScoreProf, TracebackProf and the reference Extend all do: forward,
// then backward over the reversed prefixes.
func halvesOf(q, s []alphabet.Code, qSeed, sSeed int) [2]half {
	return [2]half{
		{qSeed, +1, q[qSeed:], s[sSeed:]},
		{qSeed - 1, -1, reverseInto(nil, q[:qSeed]), reverseInto(nil, s[:sSeed])},
	}
}

// keptRun is what one kept-row half run did: its result, its operations in
// origin-to-endpoint order, and the rows it kept (first column and H, as
// bandRow) — a.kept after the run, emptied before it, since a half with its
// endpoint in row 0 runs no DP.
type keptRun struct {
	best, bq, bs int
	ops          []EditOp
	rows         []bandRow
}

func (r keptRun) cells() (n int) {
	for _, row := range r.rows {
		n += len(row.h)
	}
	return n
}

func runKept(a *Aligner, prof *matrix.Profile, h half, ki, kj int) keptRun {
	a.kept = a.kept[:0]
	a.ops = a.ops[:0]
	var run keptRun
	run.best, run.bq, run.bs = a.tracebackHalf(prof, h.rowBase, h.rowStride, len(h.q), h.s, ki, kj)
	run.ops = slices.Clone(a.ops)
	slices.Reverse(run.ops)
	for _, r := range a.kept {
		row := bandRow{lo: r.lo, h: make([]int32, len(r.cells))}
		for k, c := range r.cells {
			row.h[k] = c.h
		}
		run.rows = append(run.rows, row)
	}
	return run
}

// tracebackTally counts, over every half a test checked, the situations the
// equivalence has to have been through to mean anything.
type tracebackTally struct {
	halves      int
	rowZero     int // endpoint in row 0: the half ran no DP at all
	edgeGap     int // a query gap closed at a band's first column: the E scan had nothing to its left
	cutTwoThird int // the bound kept at most a third of the rows the reference kept
	refCells    int
	boundCells  int
}

// checkHalf runs one half through the score pass, the reference traceback
// and the kept-row traceback with and without the bound, and requires one
// answer from all of them.
func checkHalf(t testing.TB, a *Aligner, ref *refAligner, prof *matrix.Profile, h half, tally *tracebackTally) {
	t.Helper()
	_, ki, kj := a.extendHalfProf(prof, h.rowBase, h.rowStride, len(h.q), h.s, false, -1, -1)
	cells0, rows0 := ref.tbCells, ref.tbRows
	wantBest, wantQ, wantS, wantOps := ref.extendHalf(h.q, h.s)
	refCells, refRows := ref.tbCells-cells0, ref.tbRows-rows0

	bounded := runKept(a, prof, h, ki, kj)
	whole := runKept(a, prof, h, -1, -1)
	for name, got := range map[string]keptRun{"bounded": bounded, "unbounded": whole} {
		if got.best != wantBest || got.bq != wantQ || got.bs != wantS || !slices.Equal(got.ops, wantOps) {
			t.Fatalf("%s kept-row half: score %d at (%d,%d) ops %q; reference: score %d at (%d,%d) ops %q",
				name, got.best, got.bq, got.bs, got.ops, wantBest, wantQ, wantS, wantOps)
		}
	}
	if ki != wantQ || kj != wantS {
		t.Fatalf("score pass ends at (%d,%d), reference at (%d,%d)", ki, kj, wantQ, wantS)
	}
	if len(whole.rows) != refRows || whole.cells() != refCells {
		t.Fatalf("unbounded run kept %d rows / %d cells, reference %d / %d", len(whole.rows), whole.cells(), refRows, refCells)
	}
	wantRows := ki + 1
	if ki == 0 {
		wantRows = 0
	}
	if len(bounded.rows) != wantRows {
		t.Fatalf("bounded run kept %d rows for an endpoint in row %d, want %d", len(bounded.rows), ki, wantRows)
	}
	for i, r := range bounded.rows {
		if r.lo != whole.rows[i].lo || !slices.Equal(r.h, whole.rows[i].h) {
			t.Fatalf("row %d differs between the bounded and the unbounded run", i)
		}
	}

	tally.halves++
	tally.refCells += refCells
	tally.boundCells += bounded.cells()
	if ki == 0 {
		tally.rowZero++
	}
	if ki > 0 && 3*len(bounded.rows) <= refRows {
		tally.cutTwoThird++
	}
	// Retrace the path: a query gap whose last D lands on cell (i,j) was chosen
	// there after the diagonal test and the leftward scan both failed.
	i, j := 0, 0
	for k, op := range bounded.ops {
		switch op {
		case OpMatch:
			i, j = i+1, j+1
		case OpIns:
			j++
		case OpDel:
			i++
			if (k+1 == len(bounded.ops) || bounded.ops[k+1] != OpDel) && j == bounded.rows[i].lo {
				tally.edgeGap++
			}
		}
	}
}

// checkExtension checks both halves and then the stitched alignment: the
// bounded traceback of the score pass's result and the kept-row traceback
// with no bound must both be the reference Extend, and valid.
func checkExtension(t testing.TB, p Params, q, s []alphabet.Code, qSeed, sSeed int, tally *tracebackTally) (got, pre Alignment) {
	t.Helper()
	a := NewAligner(matrix.Blosum62, p)
	ref := a.reference()
	prof := matrix.NewProfile(matrix.Blosum62, q)
	for _, h := range halvesOf(q, s, qSeed, sSeed) {
		checkHalf(t, a, ref, prof, h, tally)
	}
	want := ref.Extend(q, s, qSeed, sSeed)
	pre = a.ExtendScoreProf(prof, q, s, qSeed, sSeed)
	for name, pre := range map[string]Alignment{"bounded": pre, "unbounded": noBound(qSeed, sSeed)} {
		got = a.TracebackProf(prof, q, s, qSeed, sSeed, pre)
		if !sameAln(got, want) || !slices.Equal(got.Ops, want.Ops) || got.Ops == nil {
			t.Fatalf("%s TracebackProf(qSeed=%d sSeed=%d %+v) = %+v, reference Extend = %+v", name, qSeed, sSeed, p, got, want)
		}
	}
	if err := got.Validate(matrix.Blosum62, q, s, a.P); err != nil {
		t.Fatalf("TracebackProf(qSeed=%d sSeed=%d %+v): %v", qSeed, sSeed, p, err)
	}
	if !sameAln(pre, Alignment{Score: pre.Score, QStart: got.QStart, QEnd: got.QEnd, SStart: got.SStart, SEnd: got.SEnd}) ||
		(got.Score != pre.Score && got.Score != pre.Score+a.P.GapOpen) {
		t.Fatalf("traceback %+v does not follow from the score pass's %+v", got, pre)
	}
	return got, pre
}

// noBound is a score-pass result no half run can reach (both halves' endpoint
// rows are -1), so TracebackProf keeps every row the X-drop allows — the
// kernel without the bound, for the tests and BenchmarkTraceback to tell the
// two effects apart.
func noBound(qSeed, sSeed int) Alignment {
	return Alignment{QStart: qSeed + 1, QEnd: qSeed - 1, SStart: sSeed + 1, SEnd: sSeed - 1}
}

// TestTracebackMatchesReference sweeps random and planted-homolog pairs under
// random gap parameters, every kind of seed the engine can pick (any point of
// either sequence, the ends included), and requires that the sweep went
// through each situation the traceback treats specially.
func TestTracebackMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	var tally tracebackTally
	bothGaps, seams := 0, 0
	for trial := 0; trial < 300; trial++ {
		q := equivSeq(rng, 8+rng.Intn(200))
		var s []alphabet.Code
		if trial%3 == 0 {
			s = equivSeq(rng, 8+rng.Intn(300))
		} else {
			s = homolog(rng, q, 4+rng.Intn(8), 6+rng.Intn(30))
		}
		p := Params{
			GapOpen:   2 + rng.Intn(12),
			GapExtend: 1 + rng.Intn(3),
			XDrop:     5 + rng.Intn(60),
		}
		for rep := 0; rep < 4; rep++ {
			qSeed := rng.Intn(len(q) + 1)
			sSeed := rng.Intn(len(s) + 1)
			if trial%3 != 0 && rep > 0 {
				// On or near the homolog's main diagonal, where the engine's seeds are.
				sSeed = min(len(s), max(0, qSeed+rng.Intn(7)-3))
			}
			got, pre := checkExtension(t, p, q, s, qSeed, sSeed, &tally)
			if slices.Contains(got.Ops, OpIns) && slices.Contains(got.Ops, OpDel) {
				bothGaps++
			}
			if got.Score != pre.Score {
				seams++
			}
		}
	}
	t.Logf("%d halves: %d with a row-0 endpoint, %d gaps closed at a band's first column, %d cut to a third of the reference's rows; %d alignments with I and D, %d seam-corrected; bounded cells %d of %d",
		tally.halves, tally.rowZero, tally.edgeGap, tally.cutTwoThird, bothGaps, seams, tally.boundCells, tally.refCells)
	for name, n := range map[string]int{
		"half with its endpoint in row 0":           tally.rowZero,
		"query gap closed at a band's first column": tally.edgeGap,
		"bound keeping at most a third of the rows": tally.cutTwoThird,
		"alignment with both I and D":               bothGaps,
		"seam-corrected pair of halves":             seams,
	} {
		if n < 5 {
			t.Errorf("%s: reached %d times, want at least 5; the sweep no longer covers it", name, n)
		}
	}
}

// TestTracebackSeamRegression is seam_regression_test.go's input — both
// halves meet the seed with the same gap type, so the stitched score is one
// gap open above the score pass's — through the kept-row traceback.
func TestTracebackSeamRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(-4087018571053703100))
	standard := func(n int) []alphabet.Code {
		s := make([]alphabet.Code, n)
		for i := range s {
			s[i] = alphabet.Code(rng.Intn(20))
		}
		return s
	}
	q := standard(0x47%120 + 1)
	s := standard(0xe1%120 + 1)
	qSeed, sSeed := rng.Intn(len(q)+1), rng.Intn(len(s)+1)
	var tally tracebackTally
	p := DefaultParams()
	got, pre := checkExtension(t, p, q, s, qSeed, sSeed, &tally)
	if got.Score != pre.Score+p.GapOpen {
		t.Fatalf("traceback score %d, score pass %d: the input no longer merges two runs at the seam", got.Score, pre.Score)
	}
}

// TestTracebackMaxCells: when the cell budget, not the X-drop, ended the
// score pass, the endpoint it reports is the best of a truncated DP, and the
// bounded traceback must stop there as the reference does.
func TestTracebackMaxCells(t *testing.T) {
	rng := rand.New(rand.NewSource(193))
	q := equivSeq(rng, 300)
	s := homolog(rng, q, 6, 40)
	p := DefaultParams()
	var tally tracebackTally
	full, _ := checkExtension(t, p, q, s, 150, 150, &tally)
	p.MaxCells = 2000
	cut, _ := checkExtension(t, p, q, s, 150, 150, &tally)
	if cut.QEnd >= full.QEnd || cut.QStart <= full.QStart || cut.QEnd-cut.QStart < 20 {
		t.Fatalf("budget of %d cells gives query span [%d,%d), unlimited [%d,%d); want both halves cut in mid-band",
			p.MaxCells, cut.QStart, cut.QEnd, full.QStart, full.QEnd)
	}
}

// TestTracebackServeMix is the count the bound was sized by: on the alignments
// the engine re-aligns for the serve_* workloads (serveMix) most of the
// reference traceback's cells lie below the endpoint, in the X-drop tail the
// score pass already walked. Every half keeps exactly ki+1 rows (checkHalf),
// and together they compute at most 0.35 of the reference's cells.
func TestTracebackServeMix(t *testing.T) {
	mix := serveMix()
	tally := checkServeMix(t)
	t.Logf("%d alignments, %d halves (%d with a row-0 endpoint): bounded %d of %d reference cells (%.3f)",
		len(mix), tally.halves, tally.rowZero, tally.boundCells, tally.refCells, float64(tally.boundCells)/float64(tally.refCells))
	if len(mix) < 500 {
		t.Fatalf("serveMix has %d alignments, want at least 500; the engine re-aligns 514 for this shape", len(mix))
	}
	if 100*tally.boundCells > 35*tally.refCells {
		t.Errorf("bounded traceback computes %d of the reference's %d cells, want at most 0.35", tally.boundCells, tally.refCells)
	}
}

// FuzzTracebackEquivalence fuzzes the bounded kept-row traceback against the
// reference; run under `make fuzz` for a fixed budget.
func FuzzTracebackEquivalence(f *testing.F) {
	f.Add([]byte("MKVLAARTWQ"), []byte("MKVLHARTWQNDEC"), 2, 3, 38, 11)
	f.Add([]byte("AAAA"), []byte("AAAAAA"), 0, 0, 5, 2)
	f.Add([]byte("HHHHHHHHHHKKKKKKKKKK"), []byte("HHHHHHHHHHAAAKKKKKKKKKK"), 5, 5, 38, 11)
	for _, z := range zoneShapes() {
		f.Add(z.q, z.s, z.qSeed, z.sSeed, z.xDrop, z.gapOpen)
	}
	f.Fuzz(func(t *testing.T, qb, sb []byte, qSeed, sSeed, xDrop, gapOpen int) {
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
		if qSeed < 0 || qSeed > len(q) || sSeed < 0 || sSeed > len(s) {
			return
		}
		if xDrop < 0 || xDrop > 1<<16 || gapOpen < 0 || gapOpen > 64 {
			return
		}
		p := DefaultParams()
		p.XDrop, p.GapOpen = xDrop, gapOpen
		var tally tracebackTally
		checkExtension(t, p, q, s, qSeed, sSeed, &tally)
	})
}

// TestTracebackProfAllocs pins stage four's steady state: once an aligner
// has re-aligned the alignments, re-aligning one again allocates exactly one
// object, the copy of its operations it returns.
func TestTracebackProfAllocs(t *testing.T) {
	a := defAligner()
	for _, c := range allocCases() {
		pre := a.ExtendScoreProf(c.prof, c.q, c.s, c.qSeed, c.sSeed)
		if got := a.TracebackProf(c.prof, c.q, c.s, c.qSeed, c.sSeed, pre); len(got.Ops) == 0 {
			t.Fatalf("case of length %d: no operations, so nothing to copy", len(c.q))
		}
		allocs := testing.AllocsPerRun(20, func() {
			a.TracebackProf(c.prof, c.q, c.s, c.qSeed, c.sSeed, pre)
		})
		if allocs != 1 {
			t.Fatalf("case of length %d: a warm TracebackProf allocates %.1f objects, want 1 (its ops copy)", len(c.q), allocs)
		}
	}
}

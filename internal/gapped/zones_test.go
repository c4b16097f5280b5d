package gapped

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/matrix"
)

// The profile kernel walks each DP row as three zones (column 0, the
// interior under the previous row, the tail past it). The equivalence tests
// in profile_equiv_test.go throw random inputs at it; the cases here are
// built to reach one zone each, are guarded so that they fail loudly if an
// input stops reaching it, and compare against extendHalfScore — score,
// endpoint and the rolling rows both kernels leave behind.

// bandRow is the geometry of one DP row: its first column and its H values.
type bandRow struct {
	lo int
	h  []int32
}

func (r bandRow) end() int { return r.lo + len(r.h) }

// bandRows returns every row's band for one half extension, read from the
// rows the traceback kernel keeps (extendHalf does the same band bookkeeping
// as the score-only kernels, row for row). Row 0 is the gap-only row.
func bandRows(p Params, q, s []alphabet.Code) []bandRow {
	a := NewAligner(matrix.Blosum62, p).reference() // fresh pool: one pooled row per DP row
	a.extendHalf(q, s)
	rows := make([]bandRow, len(a.rowPool))
	for i, r := range a.rowPool {
		rows[i] = bandRow{lo: r.lo, h: slices.Clone(r.h)}
	}
	return rows
}

// requireSameHalf runs the profile kernel on one half extension twice, score
// only and with its rows kept, and requires the score and endpoint of the
// reference score-only kernel from both, and from the kept run every row the
// reference extendHalf stores: the same number of rows and, row for row, the
// same first column, H and F. It also requires the kernel to leave its one
// DP row dead, as the next extension expects to find it.
func requireSameHalf(t *testing.T, p Params, q, s []alphabet.Code) (score, bq, bs int) {
	t.Helper()
	a := NewAligner(matrix.Blosum62, p)
	ref := a.reference()
	wantScore, wantQ, wantS := ref.extendHalfScore(q, s)
	ref.extendHalf(q, s) // fresh pool: one pooled row per DP row
	prof := matrix.NewProfile(matrix.Blosum62, q)
	for _, keep := range []bool{false, true} {
		score, bq, bs = a.extendHalfProf(prof, 0, +1, len(q), s, keep, -1, -1)
		if score != wantScore || bq != wantQ || bs != wantS {
			t.Fatalf("profile kernel (keep %v): score %d at (%d,%d); reference: score %d at (%d,%d)",
				keep, score, bq, bs, wantScore, wantQ, wantS)
		}
		for j, c := range a.row {
			if c != dead {
				t.Fatalf("profile kernel (keep %v) left column %d of its row at %+v", keep, j, c)
			}
		}
	}
	if len(a.kept) != len(ref.rowPool) {
		t.Fatalf("profile kernel kept %d rows, reference %d", len(a.kept), len(ref.rowPool))
	}
	for i, got := range a.kept {
		want := ref.rowPool[i]
		h, f := make([]int32, len(got.cells)), make([]int32, len(got.cells))
		for k, c := range got.cells {
			h[k], f[k] = c.h, c.f
		}
		if got.lo != want.lo || !slices.Equal(h, want.h) || !slices.Equal(f, want.f) {
			t.Fatalf("row %d differs:\n profile   lo=%d h=%v f=%v\n reference lo=%d h=%v f=%v",
				i, got.lo, h, f, want.lo, want.h, want.f)
		}
	}
	return score, bq, bs
}

// homolog returns a copy of q with about one residue in subRate substituted
// and one in indelRate deleted or doubled.
func homolog(rng *rand.Rand, q []alphabet.Code, subRate, indelRate int) []alphabet.Code {
	s := make([]alphabet.Code, 0, len(q)+8)
	for _, c := range q {
		switch {
		case rng.Intn(indelRate) == 0:
			if rng.Intn(2) == 0 {
				continue
			}
			s = append(s, c, alphabet.Code(rng.Intn(20)))
		case rng.Intn(subRate) == 0:
			s = append(s, alphabet.Code(rng.Intn(20)))
		default:
			s = append(s, c)
		}
	}
	return s
}

// TestZoneColumnZeroSurvives: with cheap gaps and the seed at the subject's
// start, column 0 stays inside the band for many rows, so the column-0 zone
// runs with a live cell (H coming down a gap) row after row.
func TestZoneColumnZeroSurvives(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	p := Params{GapOpen: 1, GapExtend: 1, XDrop: 30, MaxCells: 1 << 24}
	q, s := equivSeq(rng, 80), equivSeq(rng, 80)
	live := 0
	for _, r := range bandRows(p, q, s)[1:] {
		if r.lo == 0 && r.h[0] > negInf {
			live++
		}
	}
	if live < 8 {
		t.Fatalf("column 0 live in only %d rows; the case no longer reaches the zone", live)
	}
	requireSameHalf(t, p, q, s)
}

// TestZoneTailLongerThanInterior: a run of mismatches walks the diagonal
// down to the prune threshold, which squeezes the band to a few columns; the
// W/W pair that follows sets a new best, and its score spills along the
// row's own E chain (cheap gaps) further past the previous row's end than
// the previous row was wide. Twice, so the second time starts from a band
// that has already moved off column 0.
func TestZoneTailLongerThanInterior(t *testing.T) {
	p := Params{GapOpen: 2, GapExtend: 1, XDrop: 8, MaxCells: 1 << 24}
	q := alphabet.MustEncode("W" + "HHH" + "W" + "HHH" + "W" + "AAAA")
	s := alphabet.MustEncode("W" + "CAC" + "W" + "CAC" + "W" + "GGGGGGGGGGGGGG")
	rows := bandRows(p, q, s)
	reached := 0
	for i := 1; i < len(rows); i++ {
		interior := rows[i-1].end() - rows[i].lo
		tail := rows[i].end() - rows[i-1].end()
		if tail > interior && tail >= 5 {
			reached++
		}
	}
	if reached < 2 {
		for i, r := range rows {
			t.Logf("row %d: [%d,%d)", i, r.lo, r.end())
		}
		t.Fatalf("%d rows whose tail outgrows their interior, want 2; the case no longer reaches the zone", reached)
	}
	requireSameHalf(t, p, q, s)
}

// TestZoneWideBandHomolog: a homologous pair under the engine's parameters
// keeps a band tens of columns wide open for hundreds of rows — the interior
// loop at length, with the band's edges dying and reviving along the way.
func TestZoneWideBandHomolog(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	p := DefaultParams()
	p.MaxCells = 1 << 24
	q := equivSeq(rng, 500)
	s := homolog(rng, q, 6, 40)
	wide := 0
	for _, r := range bandRows(p, q, s)[1:] {
		if len(r.h) >= 30 {
			wide++
		}
	}
	if wide < 300 {
		t.Fatalf("only %d rows at least 30 columns wide; the case no longer reaches the zone", wide)
	}
	_, bq, _ := requireSameHalf(t, p, q, s)
	if bq < 400 {
		t.Fatalf("best endpoint at query %d of %d: not the long alignment this case is about", bq, len(q))
	}
}

// TestZoneBestMovesMidRow: a new best inside the interior raises the prune
// threshold for the rest of the same row. Guard: some row sets a new best at
// a column that still has interior columns to its right.
func TestZoneBestMovesMidRow(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	p := DefaultParams()
	p.MaxCells = 1 << 24
	q := equivSeq(rng, 120)
	s := homolog(rng, q, 8, 30)
	rows := bandRows(p, q, s)
	best, moved := int32(0), 0
	for i := 1; i < len(rows); i++ {
		for k, h := range rows[i].h {
			if h > best {
				best = h
				if rows[i].lo+k+1 < rows[i-1].end() {
					moved++
				}
			}
		}
	}
	if moved < 10 {
		t.Fatalf("the best moved mid-row only %d times; the case no longer reaches the path", moved)
	}
	requireSameHalf(t, p, q, s)
}

// TestZoneMaxCellsBetweenWideRows: the cell budget is checked between rows,
// and must trip after the same row in both kernels while the band is wide.
func TestZoneMaxCellsBetweenWideRows(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	q := equivSeq(rng, 300)
	s := homolog(rng, q, 6, 40)
	p := DefaultParams()
	p.MaxCells = 1 << 24
	_, fullQ, _ := requireSameHalf(t, p, q, s)
	p.MaxCells = 4000
	_, cutQ, _ := requireSameHalf(t, p, q, s)
	if cutQ >= fullQ || cutQ < 20 {
		t.Fatalf("budget of %d cells ends the alignment at query %d (unlimited: %d); want a cut in mid-band", p.MaxCells, cutQ, fullQ)
	}
}

// zoneShape is one fuzz seed shaped like a zone test's input, as the bytes
// the fuzzers map to residues (b % alphabet.Size).
type zoneShape struct {
	q, s                         []byte
	qSeed, sSeed, xDrop, gapOpen int
}

// zoneShapes are the seeds FuzzExtendScoreProfEquivalence and
// FuzzTracebackEquivalence start from besides their own: the band shapes
// the zone tests reach, so that a short fuzzing budget starts from them.
func zoneShapes() []zoneShape {
	bytesOf := func(c []alphabet.Code) []byte {
		b := make([]byte, len(c))
		for i, r := range c {
			b[i] = byte(r)
		}
		return b
	}
	rng := rand.New(rand.NewSource(173))
	var shapes []zoneShape
	// The seed at the subject's start: column 0 stays in the band.
	q, s := equivSeq(rng, 80), equivSeq(rng, 80)
	shapes = append(shapes, zoneShape{bytesOf(q), bytesOf(s), 40, 0, 30, 1})
	// A tail longer than the interior, twice (TestZoneTailLongerThanInterior).
	shapes = append(shapes, zoneShape{
		bytesOf(alphabet.MustEncode("WHHHWHHHWAAAA")), bytesOf(alphabet.MustEncode("WCACWCACWGGGGGGGGGGGGGG")), 0, 0, 8, 2})
	// A homolog with indels: a band tens of columns wide for hundreds of rows.
	q = equivSeq(rng, 400)
	s = homolog(rng, q, 6, 40)
	shapes = append(shapes, zoneShape{bytesOf(q), bytesOf(s), 200, min(200, len(s)-1), 38, 11})
	// A wide X-drop: every row spans most of the subject.
	q, s = equivSeq(rng, 120), equivSeq(rng, 150)
	shapes = append(shapes, zoneShape{bytesOf(q), bytesOf(s), 60, 75, 1000, 11})
	// The best moving mid-row (TestZoneBestMovesMidRow).
	q = equivSeq(rng, 120)
	s = homolog(rng, q, 8, 30)
	shapes = append(shapes, zoneShape{bytesOf(q), bytesOf(s), 30, min(30, len(s)-1), 38, 11})
	return shapes
}

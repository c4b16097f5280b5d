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

// requireSameHalf runs both score-only kernels on one half extension and
// requires the same score and endpoint and the same two rolling rows (lo, H
// and F of the last rows written), which is as much of "stores the same H
// and F" as survives the call.
func requireSameHalf(t *testing.T, p Params, q, s []alphabet.Code) (score, bq, bs int) {
	t.Helper()
	a := NewAligner(matrix.Blosum62, p)
	ref := a.reference()
	wantScore, wantQ, wantS := ref.extendHalfScore(q, s)
	prof := matrix.NewProfile(matrix.Blosum62, q)
	score, bq, bs = a.extendHalfProf(prof, 0, +1, len(q), s, false, -1, -1)
	if score != wantScore || bq != wantQ || bs != wantS {
		t.Fatalf("profile kernel: score %d at (%d,%d); reference: score %d at (%d,%d)",
			score, bq, bs, wantScore, wantQ, wantS)
	}
	for _, pair := range [2]struct {
		got  *halfRow
		want *scoreRow
	}{{&a.roll[0], &ref.sprev}, {&a.roll[1], &ref.scur}} {
		if pair.got.lo != pair.want.lo || !slices.Equal(pair.got.h, pair.want.h) || !slices.Equal(pair.got.f, pair.want.f) {
			t.Fatalf("rolling rows differ:\n profile   lo=%d h=%v f=%v\n reference lo=%d h=%v f=%v",
				pair.got.lo, pair.got.h, pair.got.f, pair.want.lo, pair.want.h, pair.want.f)
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

package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/alphabet"
	"repro/internal/baseline"
	"repro/internal/dbase"
	"repro/internal/dbindex"
	"repro/internal/search"
)

// randomWorld builds a small random database and query entirely from an rng,
// without the seqgen homolog machinery — adversarial shapes for the
// pipeline equivalence property.
func randomWorld(rng *rand.Rand, nSeqs, maxLen int) ([][]alphabet.Code, []alphabet.Code) {
	seqs := make([][]alphabet.Code, nSeqs)
	for i := range seqs {
		// Deliberately include degenerate lengths (0, 1, 2 residues).
		l := rng.Intn(maxLen + 1)
		s := make([]alphabet.Code, l)
		for j := range s {
			s[j] = alphabet.Code(rng.Intn(alphabet.Size)) // incl. B,Z,X,*
		}
		seqs[i] = s
	}
	// Query: either random or a window of a database sequence.
	var q []alphabet.Code
	if rng.Intn(2) == 0 {
		q = make([]alphabet.Code, 10+rng.Intn(100))
		for j := range q {
			q[j] = alphabet.Code(rng.Intn(20))
		}
	} else {
		for _, s := range seqs {
			if len(s) >= 20 {
				start := rng.Intn(len(s) - 19)
				q = append(q, s[start:start+20]...)
				break
			}
		}
		if q == nil {
			q = make([]alphabet.Code, 20)
		}
	}
	return seqs, q
}

// TestPropertyEnginesEquivalentOnRandomWorlds is the Section V-E invariant
// under adversarial random inputs: for any database (including degenerate
// sequences and ambiguity codes) and any query, the three engines return
// identical results, for any block size.
func TestPropertyEnginesEquivalentOnRandomWorlds(t *testing.T) {
	cfg := cfgShared(t)
	check := func(seed int64, blockSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		seqs, q := randomWorld(rng, 5+rng.Intn(40), 300)
		db := dbase.New(seqs)
		blockResidues := []int64{512, 2048, 1 << 20}[blockSel%3]
		ix, err := dbindex.Build(db, cfg.Neighbors, blockResidues)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		a := baseline.NewQueryIndexed(cfg, db).Search(0, q)
		b := baseline.NewDBIndexed(cfg, ix).Search(0, q)
		c := searchOne(New(cfg, ix), q)
		return sameResult(a, b) && sameResult(a, c)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func sameResult(a, b search.QueryResult) bool {
	if len(a.HSPs) != len(b.HSPs) {
		return false
	}
	for i := range a.HSPs {
		x, y := a.HSPs[i], b.HSPs[i]
		if x.Subject != y.Subject || x.Aln.Score != y.Aln.Score ||
			x.Aln.QStart != y.Aln.QStart || x.Aln.QEnd != y.Aln.QEnd ||
			x.Aln.SStart != y.Aln.SStart || x.Aln.SEnd != y.Aln.SEnd ||
			string(x.Aln.Ops) != string(y.Aln.Ops) {
			return false
		}
	}
	return true
}

// TestPropertyPrefilterInvariant: on random worlds the pre-filter hands the
// sort exactly the pair set, no more and no fewer than the interleaved
// db-indexed baseline (which selects pairs hit by hit, with no buffer to
// filter) counts, and the final results agree.
func TestPropertyPrefilterInvariant(t *testing.T) {
	cfg := cfgShared(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seqs, q := randomWorld(rng, 5+rng.Intn(30), 200)
		db := dbase.New(seqs)
		ix, err := dbindex.Build(db, cfg.Neighbors, 4096)
		if err != nil {
			return false
		}
		on := searchOne(New(cfg, ix), q)
		off := baseline.NewDBIndexed(cfg, ix).Search(0, q)
		if on.Stats.Pairs != off.Stats.Pairs || on.Stats.Hits != off.Stats.Hits {
			return false
		}
		if on.Stats.SortedItems != on.Stats.Pairs || on.Stats.Pairs > on.Stats.Hits {
			return false
		}
		return sameResult(on, off)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyQueryIsAlwaysFoundVerbatim: a query that is an exact window of
// a database sequence (length >= 28, above the two-hit requirements) always
// yields a hit on its source sequence with the full self score.
func TestPropertyQueryIsAlwaysFoundVerbatim(t *testing.T) {
	cfg := cfgShared(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seqs, _ := randomWorld(rng, 20, 300)
		// Force one adequately long sequence.
		long := make([]alphabet.Code, 150)
		for j := range long {
			long[j] = alphabet.Code(rng.Intn(20))
		}
		seqs = append(seqs, long)
		db := dbase.New(seqs)
		ix, err := dbindex.Build(db, cfg.Neighbors, 8192)
		if err != nil {
			return false
		}
		start := rng.Intn(len(long) - 60)
		q := append([]alphabet.Code(nil), long[start:start+60]...)
		res := searchOne(New(cfg, ix), q)
		want := cfg.Matrix.SeqScore(q, q)
		for _, h := range res.HSPs {
			if h.Aln.Score >= want {
				return true
			}
		}
		return false
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

package baseline

import (
	"math"
	"sync"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/dbase"
	"repro/internal/dbindex"
	"repro/internal/matrix"
	"repro/internal/neighbor"
	"repro/internal/search"
	"repro/internal/seqgen"
	"repro/internal/sw"
)

var (
	envOnce sync.Once
	envNbr  *neighbor.Enumerator
	envCfg  *search.Config
)

func testConfig(t *testing.T) *search.Config {
	t.Helper()
	envOnce.Do(func() {
		envNbr = neighbor.New(matrix.Blosum62, neighbor.DefaultThreshold)
		var err error
		envCfg, err = search.NewConfig(matrix.Blosum62, envNbr)
		if err != nil {
			panic(err)
		}
	})
	// Copy so tests can tweak fields without interfering.
	cfg := *envCfg
	return &cfg
}

// testWorld builds a deterministic db (length-sorted via index build), an
// index over it, and queries sampled from it.
func testWorld(t *testing.T, nSeqs, nQueries, qLen int, blockResidues int64) (*search.Config, *dbase.DB, *dbindex.Index, [][]alphabet.Code) {
	t.Helper()
	cfg := testConfig(t)
	g := seqgen.New(seqgen.UniprotProfile(), 1234)
	db := dbase.New(g.Database(nSeqs))
	ix, err := dbindex.Build(db, cfg.Neighbors, blockResidues)
	if err != nil {
		t.Fatal(err)
	}
	queries := g.Queries(sequences(db), nQueries, qLen)
	return cfg, db, ix, queries
}

func sequences(db *dbase.DB) [][]alphabet.Code {
	out := make([][]alphabet.Code, db.NumSeqs())
	for i := range db.Seqs {
		out[i] = db.Seqs[i].Data
	}
	return out
}

func TestQueryIndexedFindsPlantedHomolog(t *testing.T) {
	cfg, db, _, queries := testWorld(t, 120, 4, 128, 1<<20)
	e := NewQueryIndexed(cfg, db)
	found := 0
	for qi, q := range queries {
		res := e.Search(qi, q)
		if len(res.HSPs) > 0 {
			found++
			top := res.HSPs[0]
			// Queries are db windows mutated at 10%: the top hit should be
			// strong (low E-value).
			if top.EValue > 1e-5 {
				t.Errorf("query %d: top E-value %g suspiciously weak", qi, top.EValue)
			}
		}
	}
	if found < len(queries) {
		t.Errorf("only %d/%d queries found any hit", found, len(queries))
	}
}

func TestHSPsValidateAndAreRanked(t *testing.T) {
	cfg, db, _, queries := testWorld(t, 100, 3, 256, 1<<20)
	e := NewQueryIndexed(cfg, db)
	for qi, q := range queries {
		res := e.Search(qi, q)
		for i, h := range res.HSPs {
			s := db.Seqs[h.Subject].Data
			if err := h.Aln.Validate(cfg.Matrix, q, s, cfg.Gap); err != nil {
				t.Fatalf("query %d search.HSP %d: %v", qi, i, err)
			}
			if h.EValue > cfg.EValueCutoff {
				t.Errorf("query %d search.HSP %d: E-value %g above cutoff", qi, i, h.EValue)
			}
			if i > 0 && res.HSPs[i-1].Aln.Score < h.Aln.Score {
				t.Errorf("query %d: HSPs not score-descending at %d", qi, i)
			}
			if h.SubjectName != db.Seqs[h.Subject].Name {
				t.Errorf("query %d search.HSP %d: name mismatch", qi, i)
			}
		}
	}
}

func TestStatsAreConsistent(t *testing.T) {
	cfg, db, ix, queries := testWorld(t, 100, 3, 128, 8192)
	engines := map[string]interface {
		Search(int, []alphabet.Code) search.QueryResult
	}{
		"QueryIndexed": NewQueryIndexed(cfg, db),
		"DBIndexed":    NewDBIndexed(cfg, ix),
	}
	for name, e := range engines {
		for qi, q := range queries {
			st := e.Search(qi, q).Stats
			if st.Hits <= 0 {
				t.Errorf("%s query %d: no hits", name, qi)
			}
			if st.Pairs > st.Hits {
				t.Errorf("%s query %d: pairs %d > hits %d", name, qi, st.Pairs, st.Hits)
			}
			if st.Extensions > st.Pairs {
				t.Errorf("%s query %d: extensions %d > pairs %d", name, qi, st.Extensions, st.Pairs)
			}
			if st.Kept > st.Extensions {
				t.Errorf("%s query %d: kept %d > extensions %d", name, qi, st.Kept, st.Extensions)
			}
		}
	}
}

func TestExactSubstringQueryTopHitIsSource(t *testing.T) {
	cfg := testConfig(t)
	g := seqgen.New(seqgen.UniprotProfile(), 99)
	db := dbase.New(g.Database(80))
	db.SortByLength()
	// Take an exact window of a known subject as the query.
	src := -1
	for i := range db.Seqs {
		if db.Seqs[i].Len() >= 200 {
			src = i
			break
		}
	}
	if src < 0 {
		t.Fatal("no long sequence")
	}
	q := append([]alphabet.Code(nil), db.Seqs[src].Data[20:180]...)
	e := NewQueryIndexed(cfg, db)
	res := e.Search(0, q)
	if len(res.HSPs) == 0 {
		t.Fatal("no hits for exact substring")
	}
	top := res.HSPs[0]
	// The source itself must be the (joint) top hit; planted homologs can
	// tie, so check the source appears with the maximal score.
	want := matrix.Blosum62.SeqScore(q, q)
	if top.Aln.Score < want {
		t.Errorf("top score %d below self score %d", top.Aln.Score, want)
	}
	foundSrc := false
	for _, h := range res.HSPs {
		if h.Subject == src && h.Aln.Score >= want {
			foundSrc = true
		}
	}
	if !foundSrc {
		t.Errorf("source subject %d not among top hits", src)
	}
}

func TestTopHitNeverBeatsSmithWaterman(t *testing.T) {
	cfg, db, _, queries := testWorld(t, 60, 3, 128, 1<<20)
	e := NewQueryIndexed(cfg, db)
	for qi, q := range queries {
		res := e.Search(qi, q)
		for _, h := range res.HSPs[:min(len(res.HSPs), 5)] {
			opt := sw.Score(cfg.Matrix, q, db.Seqs[h.Subject].Data, cfg.Gap.GapOpen, cfg.Gap.GapExtend)
			if h.Aln.Score > opt {
				t.Errorf("query %d subject %d: heuristic score %d exceeds SW optimum %d",
					qi, h.Subject, h.Aln.Score, opt)
			}
			// For hits BLAST reports, the heuristic should be near-optimal.
			if float64(h.Aln.Score) < 0.5*float64(opt) {
				t.Logf("query %d subject %d: heuristic %d vs SW %d (weak recovery)",
					qi, h.Subject, h.Aln.Score, opt)
			}
		}
	}
}

func TestSearchBatchMatchesSequential(t *testing.T) {
	cfg, db, ix, queries := testWorld(t, 100, 6, 128, 8192)
	qe := NewQueryIndexed(cfg, db)
	de := NewDBIndexed(cfg, ix)
	for name, pair := range map[string][2]func() []search.QueryResult{
		"QueryIndexed": {
			func() []search.QueryResult { return qe.SearchBatch(queries, 4) },
			func() []search.QueryResult {
				out := make([]search.QueryResult, len(queries))
				for i, q := range queries {
					out[i] = qe.Search(i, q)
				}
				return out
			},
		},
		"DBIndexed": {
			func() []search.QueryResult { return de.SearchBatch(queries, 4) },
			func() []search.QueryResult {
				out := make([]search.QueryResult, len(queries))
				for i, q := range queries {
					out[i] = de.Search(i, q)
				}
				return out
			},
		},
	} {
		batch, seq := pair[0](), pair[1]()
		for i := range seq {
			requireSameResult(t, name, i, seq[i], batch[i])
		}
	}
}

// requireSameResult asserts two QueryResults are identical.
func requireSameResult(t *testing.T, name string, qi int, a, b search.QueryResult) {
	t.Helper()
	if len(a.HSPs) != len(b.HSPs) {
		t.Fatalf("%s query %d: %d vs %d HSPs", name, qi, len(a.HSPs), len(b.HSPs))
	}
	for j := range a.HSPs {
		x, y := a.HSPs[j], b.HSPs[j]
		if x.Subject != y.Subject || x.Aln.Score != y.Aln.Score ||
			x.Aln.QStart != y.Aln.QStart || x.Aln.QEnd != y.Aln.QEnd ||
			x.Aln.SStart != y.Aln.SStart || x.Aln.SEnd != y.Aln.SEnd {
			t.Fatalf("%s query %d search.HSP %d differs: %+v vs %+v", name, qi, j, x, y)
		}
		if math.Abs(x.EValue-y.EValue) > 1e-12*math.Max(x.EValue, 1e-300) {
			t.Fatalf("%s query %d search.HSP %d E-value differs", name, qi, j)
		}
		if string(x.Aln.Ops) != string(y.Aln.Ops) {
			t.Fatalf("%s query %d search.HSP %d traceback differs", name, qi, j)
		}
	}
	// Compare counters only: StageNanos carries wall-clock timings, which
	// legitimately differ between otherwise identical runs.
	sa, sb := a.Stats, b.Stats
	sa.StageNanos = sb.StageNanos
	if sa != sb {
		t.Fatalf("%s query %d stats differ: %+v vs %+v", name, qi, a.Stats, b.Stats)
	}
}

func TestEmptyAndShortQueries(t *testing.T) {
	cfg, db, ix, _ := testWorld(t, 50, 1, 128, 1<<20)
	for _, e := range []interface {
		Search(int, []alphabet.Code) search.QueryResult
	}{NewQueryIndexed(cfg, db), NewDBIndexed(cfg, ix)} {
		for _, q := range [][]alphabet.Code{nil, alphabet.MustEncode("AR")} {
			res := e.Search(0, q)
			if len(res.HSPs) != 0 || res.Stats.Hits != 0 {
				t.Errorf("short query produced output: %+v", res)
			}
		}
	}
}

func TestMaxResultsCap(t *testing.T) {
	cfg, db, _, queries := testWorld(t, 150, 1, 256, 1<<20)
	cfg.MaxResults = 3
	e := NewQueryIndexed(cfg, db)
	res := e.Search(0, queries[0])
	if len(res.HSPs) > 3 {
		t.Errorf("MaxResults=3 returned %d HSPs", len(res.HSPs))
	}
}

func TestEValueCutoffFilters(t *testing.T) {
	cfg, db, _, queries := testWorld(t, 150, 1, 256, 1<<20)
	loose := *cfg
	loose.EValueCutoff = 10
	strict := *cfg
	strict.EValueCutoff = 1e-30
	nLoose := len(NewQueryIndexed(&loose, db).Search(0, queries[0]).HSPs)
	nStrict := len(NewQueryIndexed(&strict, db).Search(0, queries[0]).HSPs)
	if nStrict > nLoose {
		t.Errorf("strict cutoff returned more HSPs (%d) than loose (%d)", nStrict, nLoose)
	}
	for _, h := range NewQueryIndexed(&strict, db).Search(0, queries[0]).HSPs {
		if h.EValue > 1e-30 {
			t.Errorf("search.HSP with E-value %g passed 1e-30 cutoff", h.EValue)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestDFAEngineIdenticalToLookupTable(t *testing.T) {
	cfg, db, _, queries := testWorld(t, 120, 5, 192, 1<<20)
	lut := NewQueryIndexed(cfg, db)
	dfa := NewQueryIndexedDFA(cfg, db)
	for qi, q := range queries {
		a := lut.Search(qi, q)
		b := dfa.Search(qi, q)
		requireSameResult(t, "DFA", qi, a, b)
	}
	// Batch path too.
	ab := lut.SearchBatch(queries, 2)
	bb := dfa.SearchBatch(queries, 2)
	for qi := range queries {
		requireSameResult(t, "DFA batch", qi, ab[qi], bb[qi])
	}
}

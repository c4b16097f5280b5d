package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/baseline"
	"repro/internal/dbase"
	"repro/internal/dbindex"
	"repro/internal/hit"
	"repro/internal/hitsort"
	"repro/internal/matrix"
	"repro/internal/neighbor"
	"repro/internal/search"
	"repro/internal/seqgen"
)

var (
	worldOnce sync.Once
	worldCfg  *search.Config
)

func cfgShared(t testing.TB) *search.Config {
	t.Helper()
	worldOnce.Do(func() {
		nbr := neighbor.New(matrix.Blosum62, neighbor.DefaultThreshold)
		var err error
		worldCfg, err = search.NewConfig(matrix.Blosum62, nbr)
		if err != nil {
			panic(err)
		}
	})
	cfg := *worldCfg
	return &cfg
}

func world(t testing.TB, seed int64, nSeqs, nQueries, qLen int, blockResidues int64) (*search.Config, *dbindex.Index, [][]alphabet.Code) {
	t.Helper()
	cfg := cfgShared(t)
	g := seqgen.New(seqgen.UniprotProfile(), seed)
	db := dbase.New(g.Database(nSeqs))
	ix, err := dbindex.Build(db, cfg.Neighbors, blockResidues)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]alphabet.Code, db.NumSeqs())
	for i := range db.Seqs {
		seqs[i] = db.Seqs[i].Data
	}
	return cfg, ix, g.Queries(seqs, nQueries, qLen)
}

// queryFrom returns one n-residue query that a generator of the given seed
// draws from ix's sequences, as world draws its queries.
func queryFrom(ix *dbindex.Index, seed int64, n int) []alphabet.Code {
	seqs := make([][]alphabet.Code, ix.DB.NumSeqs())
	for i := range ix.DB.Seqs {
		seqs[i] = ix.DB.Seqs[i].Data
	}
	return seqgen.New(seqgen.UniprotProfile(), seed).Queries(seqs, 1, n)[0]
}

// requireIdentical asserts that two result sets agree exactly: same HSPs,
// same coordinates, scores, tracebacks and E-values. This is the paper's
// Section V-E verification.
func requireIdentical(t *testing.T, label string, a, b []search.QueryResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: result counts %d vs %d", label, len(a), len(b))
	}
	for qi := range a {
		ra, rb := a[qi], b[qi]
		if len(ra.HSPs) != len(rb.HSPs) {
			t.Fatalf("%s query %d: %d vs %d HSPs", label, qi, len(ra.HSPs), len(rb.HSPs))
		}
		for j := range ra.HSPs {
			x, y := ra.HSPs[j], rb.HSPs[j]
			if x.Subject != y.Subject || x.Aln.Score != y.Aln.Score ||
				x.Aln.QStart != y.Aln.QStart || x.Aln.QEnd != y.Aln.QEnd ||
				x.Aln.SStart != y.Aln.SStart || x.Aln.SEnd != y.Aln.SEnd ||
				string(x.Aln.Ops) != string(y.Aln.Ops) {
				t.Fatalf("%s query %d HSP %d differs:\n  %+v\n  %+v", label, qi, j, x, y)
			}
			if math.Abs(x.EValue-y.EValue) > 1e-12*math.Max(x.EValue, 1e-300) {
				t.Fatalf("%s query %d HSP %d E-value %g vs %g", label, qi, j, x.EValue, y.EValue)
			}
		}
	}
}

// runAll searches each query alone on one of the baseline engines.
func runAll(e interface {
	Search(int, []alphabet.Code) search.QueryResult
}, queries [][]alphabet.Code) []search.QueryResult {
	out := make([]search.QueryResult, len(queries))
	for i, q := range queries {
		out[i] = e.Search(i, q)
	}
	return out
}

// searchOne runs q as a one-query batch on one thread: the engine's
// sequential search.
func searchOne(e *Engine, q []alphabet.Code) search.QueryResult {
	return e.SearchBatch([][]alphabet.Code{q}, 1)[0]
}

// planned points sc at q's neighbor plan, as SearchBatchCtx does before each
// of q's tasks, for a test that runs a task's stages itself.
func planned(e *Engine, sc *scratch, q []alphabet.Code) {
	sc.plan = new(neighbor.Plan)
	e.planQuery(sc.plan, q, new(search.Stats))
}

// TestIdenticalAcrossEngines is the central verification: query-indexed
// NCBI, db-indexed NCBI (interleaved), and muBLASTP (decoupled, prefiltered,
// radix-sorted) must produce exactly the same alignments.
func TestIdenticalAcrossEngines(t *testing.T) {
	for _, blockResidues := range []int64{4096, 32768, 1 << 20} {
		cfg, ix, queries := world(t, 42, 150, 6, 128, blockResidues)
		ncbi := runAll(baseline.NewQueryIndexed(cfg, ix.DB), queries)
		ncbiDB := runAll(baseline.NewDBIndexed(cfg, ix), queries)
		mu := New(cfg, ix).SearchBatch(queries, 1)
		requireIdentical(t, "NCBI vs NCBI-db", ncbi, ncbiDB)
		requireIdentical(t, "NCBI vs muBLASTP", ncbi, mu)
	}
}

// TestIdenticalAcrossQueryLengths also stands on both sides of the one fork
// the engine takes from its input: lengths 1026 and 1027 put len(q)-W at
// MaxQOff16 and one past it (16-bit vs 32-bit last-hit slots), 4000 runs far
// into the 32-bit width, and 70 000 needs more than 16 bits for the query
// offsets the ungapped kernels pack beside their scores.
func TestIdenticalAcrossQueryLengths(t *testing.T) {
	lastCompact := search.MaxQOff16 + alphabet.W // 1026
	for _, qLen := range []int{64, 256, 512, lastCompact, lastCompact + 1, 4000, 70000} {
		cfg, ix, queries := world(t, 7, 120, 3, qLen, 16384)
		ncbi := runAll(baseline.NewQueryIndexed(cfg, ix.DB), queries)
		mu := New(cfg, ix).SearchBatch(queries, 1)
		requireIdentical(t, "len", ncbi, mu)
		hsps := 0
		for _, r := range mu {
			hsps += len(r.HSPs)
		}
		if hsps == 0 {
			t.Errorf("qLen %d: no HSPs; the comparison is vacuous", qLen)
		}
	}
}

// TestDetectSlotWidthsAgree runs every (block, query) task through both of
// detectScan's instantiations whose slots hold the query's offsets — the
// 16-bit slots up to 1026 residues, the 32-bit ones at every length — and
// requires each pair buffer to be what replayPairs, a direct replay of
// ungapped.Canon.PairCheck over the block's residues, says, and the two
// widths' buffers to be the same record for record and in scan order where
// both run. Query length 1026 puts the last offset exactly at MaxQOff16, 1027
// one past it.
func TestDetectSlotWidthsAgree(t *testing.T) {
	for _, qLen := range []int{200, search.MaxQOff16 + alphabet.W, search.MaxQOff16 + alphabet.W + 1, 4000} {
		cfg, ix, queries := world(t, 23, 120, 3, qLen, 16384)
		e := New(cfg, ix)
		var scs [2]*scratch
		for i := range scs {
			scs[i] = e.getScratch()
		}
		pairs := 0
		for qi, q := range queries {
			for _, sc := range scs {
				planned(e, sc, q)
			}
			diagBias := len(q) - alphabet.W
			for bi, b := range ix.Blocks {
				numDiags := len(q) + b.Block.MaxLen - 2*alphabet.W + 1
				coder, err := hit.NewKeyCoder(b.Block.NumSeqs(), numDiags)
				if err != nil {
					t.Fatal(err)
				}
				seqs := ix.DB.Seqs[b.Block.Start : b.Block.Start+b.Block.NumSeqs()]
				want, wantHits, wantPairs := replayPairs(cfg, seqs, q, coder, numDiags)
				ran := 0
				for i, width := range slotWidths {
					if diagBias > width.maxQOff {
						continue
					}
					var st search.Stats
					width.detect(e, scs[i], q, bi, coder, &st)
					checkPairs(t, fmt.Sprintf("qLen %d query %d block %d %s", qLen, qi, bi, width.name),
						seqs, coder, diagBias, scs[i].pairs, st, want, wantHits, wantPairs)
					ran++
				}
				if ran == 2 && !slices.Equal(scs[0].pairs, scs[1].pairs) {
					t.Fatalf("qLen %d query %d block %d: the widths' pair buffers differ", qLen, qi, bi)
				}
				pairs += int(wantPairs)
			}
		}
		for _, sc := range scs {
			e.putScratch(sc)
		}
		if pairs == 0 {
			t.Errorf("qLen %d: no pairs; the comparison is vacuous", qLen)
		}
	}
}

// TestNewRejectsUnusableWindows reaches each of NewWithOptions's panics: a
// window that pairs nothing, one wider than the index's padding, one wider
// than a pair record's distance field, and an ungapped X-drop below 1.
func TestNewRejectsUnusableWindows(t *testing.T) {
	cfg := cfgShared(t)
	db := dbase.New(seqgen.New(seqgen.UniprotProfile(), 3).Database(20))
	x := cfg.TwoHit.XDrop
	for _, c := range []struct {
		window, padFor, xDrop int
		want                  string
	}{
		{alphabet.W, 40, x, "pairs nothing"},
		{0, 40, x, "pairs nothing"},
		{41, 40, x, "padded for at most 40"},
		{hit.MaxWindow + 1, hit.MaxWindow + 1, x, "a pair record carries distances below"},
		{40, 40, 0, "ungapped kernels need at least 1"},
	} {
		ix, err := dbindex.BuildWindow(db, cfg.Neighbors, 1<<20, c.padFor)
		if err != nil {
			t.Fatal(err)
		}
		bad := *cfg
		bad.TwoHit.Window, bad.TwoHit.XDrop = c.window, c.xDrop
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Errorf("window %d, X-drop %d over an index padded for %d: panic %q, want one saying %q", c.window, c.xDrop, c.padFor, msg, c.want)
				}
			}()
			New(&bad, ix)
		}()
	}
	good := *cfg
	good.TwoHit.Window = alphabet.W + 1
	ix, err := dbindex.BuildWindow(db, cfg.Neighbors, 1<<20, alphabet.W+1)
	if err != nil {
		t.Fatal(err)
	}
	New(&good, ix) // the narrowest window that pairs
}

func TestHitAndPairCountsMatchBaselines(t *testing.T) {
	cfg, ix, queries := world(t, 11, 100, 4, 128, 8192)
	de := baseline.NewDBIndexed(cfg, ix)
	mu := New(cfg, ix).SearchBatch(queries, 1)
	for qi, q := range queries {
		sa := de.Search(qi, q).Stats
		sb := mu[qi].Stats
		if sa.Hits != sb.Hits {
			t.Errorf("query %d: hits %d vs %d", qi, sa.Hits, sb.Hits)
		}
		if sa.Pairs != sb.Pairs {
			t.Errorf("query %d: pairs %d vs %d", qi, sa.Pairs, sb.Pairs)
		}
		if sa.Extensions != sb.Extensions {
			t.Errorf("query %d: extensions %d vs %d", qi, sa.Extensions, sb.Extensions)
		}
		if sa.Kept != sb.Kept {
			t.Errorf("query %d: kept %d vs %d", qi, sa.Kept, sb.Kept)
		}
	}
}

// TestPrefilterAblation keeps what the deleted post-filter arm guarded about
// the paper's Fig 6, as a survival check on the one pipeline: only two-hit
// pairs reach the sort, and they are a small minority of the hits. (Without
// the pre-filter every hit was sorted, so Pairs/Hits is the same ratio the
// on/off comparison bounded; the measured on/off table is in EXPERIMENTS.md.)
func TestPrefilterAblation(t *testing.T) {
	cfg, ix, queries := world(t, 13, 120, 4, 256, 16384)
	for qi, r := range New(cfg, ix).SearchBatch(queries, 1) {
		st := r.Stats
		if st.SortedItems != st.Pairs {
			t.Errorf("query %d: sorted %d records, detected %d pairs", qi, st.SortedItems, st.Pairs)
		}
		// Paper Fig 6 reports <5% of hits surviving on real databases; under
		// NCBI's non-overlapping rule this world measures 4.3-4.5%.
		frac := float64(st.Pairs) / float64(st.Hits)
		if frac > 0.06 {
			t.Errorf("query %d: %.1f%% of hits survive prefilter, expected under 6%%", qi, 100*frac)
		}
	}
}

// TestAllSortersIdentical pins the engine's one sort on the buffers it
// really sorts: for every (block, query) task, sortPairs (LSDPairs at the
// task's KeyBits) must leave exactly what the stdlib's stable sort and the
// generic LSD leave — which also checks the KeyCoder contract LSDPairs leans
// on, that no detected key has a bit above KeyBits.
func TestAllSortersIdentical(t *testing.T) {
	cfg, ix, queries := world(t, 17, 100, 3, 128, 8192)
	e := New(cfg, ix)
	sc := e.getScratch()
	defer e.putScratch(sc)
	for qi, q := range queries {
		planned(e, sc, q)
		for bi, b := range ix.Blocks {
			coder, err := hit.NewKeyCoder(b.Block.NumSeqs(), len(q)+b.Block.MaxLen-2*alphabet.W+1)
			if err != nil {
				t.Fatal(err)
			}
			var st search.Stats
			e.detectPrefiltered(sc, q, bi, coder, &st)
			std := append([]hit.Pair(nil), sc.pairs...)
			sort.SliceStable(std, func(i, j int) bool { return std[i].Key < std[j].Key })
			generic := append([]hit.Pair(nil), sc.pairs...)
			hitsort.LSD(generic, 0, nil)
			e.sortPairs(sc, coder)
			if !slices.Equal(sc.pairs, std) || !slices.Equal(sc.pairs, generic) {
				t.Fatalf("query %d block %d: sortPairs differs from the stable reference sorts on %d pairs", qi, bi, len(std))
			}
		}
	}
}

func TestSearchBatchMatchesSequential(t *testing.T) {
	cfg, ix, queries := world(t, 19, 120, 8, 128, 8192)
	e := New(cfg, ix)
	seq := e.SearchBatch(queries, 1)
	for _, threads := range []int{1, 2, 8} {
		batch := e.SearchBatch(queries, threads)
		requireIdentical(t, "batch", seq, batch)
	}
}

func TestMixedLengthQueries(t *testing.T) {
	cfg, ix, _ := world(t, 23, 100, 0, 0, 8192)
	g := seqgen.New(seqgen.UniprotProfile(), 77)
	seqs := make([][]alphabet.Code, ix.DB.NumSeqs())
	for i := range ix.DB.Seqs {
		seqs[i] = ix.DB.Seqs[i].Data
	}
	queries := g.Queries(seqs, 5, 0) // mixed lengths
	ncbi := runAll(baseline.NewQueryIndexed(cfg, ix.DB), queries)
	mu := New(cfg, ix).SearchBatch(queries, 1)
	requireIdentical(t, "mixed", ncbi, mu)
}

func TestEnvNRLikeDatabase(t *testing.T) {
	cfg := cfgShared(t)
	g := seqgen.New(seqgen.EnvNRProfile(), 31)
	db := dbase.New(g.Database(200))
	ix, err := dbindex.Build(db, cfg.Neighbors, 8192)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]alphabet.Code, db.NumSeqs())
	for i := range db.Seqs {
		seqs[i] = db.Seqs[i].Data
	}
	queries := g.Queries(seqs, 4, 128)
	ncbi := runAll(baseline.NewQueryIndexed(cfg, db), queries)
	mu := New(cfg, ix).SearchBatch(queries, 1)
	requireIdentical(t, "env_nr-like", ncbi, mu)
}

func TestShortQueryNoOutput(t *testing.T) {
	cfg, ix, _ := world(t, 37, 50, 0, 0, 1<<20)
	e := New(cfg, ix)
	for _, threads := range []int{1, 2} {
		batch := e.SearchBatch([][]alphabet.Code{alphabet.MustEncode("AR"), nil, alphabet.MustEncode("A")}, threads)
		for qi, r := range batch {
			if len(r.HSPs) != 0 || r.Stats.Hits != 0 {
				t.Errorf("%d threads: short query %d produced output: %+v", threads, qi, r)
			}
		}
	}
}

func TestResultsValidateAgainstSequences(t *testing.T) {
	cfg, ix, queries := world(t, 41, 100, 3, 256, 16384)
	results := New(cfg, ix).SearchBatch(queries, 1)
	for qi, q := range queries {
		res := results[qi]
		if len(res.HSPs) == 0 {
			t.Errorf("query %d found nothing", qi)
		}
		for i, h := range res.HSPs {
			s := ix.DB.Seqs[h.Subject].Data
			if err := h.Aln.Validate(cfg.Matrix, q, s, cfg.Gap); err != nil {
				t.Fatalf("query %d HSP %d: %v", qi, i, err)
			}
		}
	}
}

// TestCountsStableAcrossThreadsAndPasses pins the engine's determinism on one
// long-lived engine: per-query hit, pair and extension counts must not depend
// on the thread count or on how many batches the pooled scratches served
// before. The last-hit array's length follows block and query size, so with
// mixed query lengths (length 0 draws from the profile) every scratch shrinks
// and grows between tasks, and 6 passes of 8 blocks x 12 queries take each
// scratch through several wraps of its 63-reset epoch counter.
func TestCountsStableAcrossThreadsAndPasses(t *testing.T) {
	cfg, ix, queries := world(t, 23, 240, 12, 0, 12288)
	if len(ix.Blocks) < 4 {
		t.Fatalf("only %d blocks; the scratch would not change size enough", len(ix.Blocks))
	}
	e := New(cfg, ix)
	type counts struct{ hits, pairs, extensions int64 }
	var want []counts
	for pass := 0; pass < 6; pass++ {
		for _, threads := range []int{1, 4} {
			for qi, res := range e.SearchBatch(queries, threads) {
				got := counts{res.Stats.Hits, res.Stats.Pairs, res.Stats.Extensions}
				if len(want) < len(queries) {
					want = append(want, got)
				} else if got != want[qi] {
					t.Errorf("pass %d threads %d query %d: counts %+v, first pass %+v", pass, threads, qi, got, want[qi])
				}
			}
		}
	}
}

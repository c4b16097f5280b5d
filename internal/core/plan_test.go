package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/dbase"
	"repro/internal/dbindex"
	"repro/internal/hit"
	"repro/internal/neighbor"
	"repro/internal/search"
	"repro/internal/seqgen"
)

// planWorld returns an index, in several blocks, over a database with no W
// and no X — so no word with either is in it — and queries cut from the
// same sequences before the W went, with an X every 37 residues.
func planWorld(t testing.TB) (*search.Config, *dbindex.Index, [][]alphabet.Code) {
	t.Helper()
	cfg := cfgShared(t)
	seqs := seqgen.New(seqgen.UniprotProfile(), 211).Database(300)
	w, _ := alphabet.CodeFor('W')
	x, _ := alphabet.CodeFor('X')
	a, _ := alphabet.CodeFor('A')
	var queries [][]alphabet.Code
	for _, s := range seqs[:8] {
		q := slices.Clone(s)
		for i := 0; i < len(q); i += 37 {
			q[i] = x
		}
		queries = append(queries, q)
	}
	for _, s := range seqs {
		for i, c := range s {
			if c == w || c == x {
				s[i] = a
			}
		}
	}
	ix, err := dbindex.Build(dbase.New(seqs), cfg.Neighbors, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Blocks) < 3 {
		t.Fatalf("%d blocks, want several", len(ix.Blocks))
	}
	return cfg, ix, queries
}

// TestPlanSkipsAbsentWords checks that leaving the index's absent words out
// of a query's plan changes nothing a search reports: every (block, query)
// task gives the hits and the pair buffer the full neighbor lists give on
// both slot widths, and every alignment, untraced and traced, is the same.
func TestPlanSkipsAbsentWords(t *testing.T) {
	cfg, ix, queries := planWorld(t)
	full := *ix
	for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
		full.Words.Add(w)
	}
	for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
		if ix.Words.Has(w) != held(ix, w) {
			t.Fatalf("%s: Words says %v, the blocks disagree", w, ix.Words.Has(w))
		}
	}
	var filtered, unfiltered neighbor.Plan
	for _, q := range queries {
		filtered.Fill(cfg.Neighbors, q, &ix.Words)
		unfiltered.Fill(cfg.Neighbors, q, nil)
		if len(filtered.Words()) >= len(unfiltered.Words()) {
			t.Fatalf("filtered plan has %d words, unfiltered %d", len(filtered.Words()), len(unfiltered.Words()))
		}
	}

	t.Run("slot widths", func(t *testing.T) {
		e := New(cfg, ix)
		scF, scU := e.getScratch(), e.getScratch()
		defer e.putScratch(scF)
		defer e.putScratch(scU)
		var st search.Stats
		for qi, q := range queries {
			e.planQuery(&filtered, q, &st)
			unfiltered.Fill(cfg.Neighbors, q, nil)
			scF.plan, scU.plan = &filtered, &unfiltered
			for bi, b := range ix.Blocks {
				coder, err := hit.NewKeyCoder(b.Block.NumSeqs(), len(q)+b.Block.MaxLen-2*alphabet.W+1)
				if err != nil {
					t.Fatal(err)
				}
				for _, width := range slotWidths {
					var stF, stU search.Stats
					width.detect(e, scF, q, bi, coder, &stF)
					width.detect(e, scU, q, bi, coder, &stU)
					if stF.Hits != stU.Hits || !slices.Equal(scF.pairs, scU.pairs) {
						t.Fatalf("query %d block %d %s: filtered plan %d hits %d pairs, full %d hits %d pairs, or the records differ",
							qi, bi, width.name, stF.Hits, len(scF.pairs), stU.Hits, len(scU.pairs))
					}
				}
			}
		}
	})

	traced := *cfg
	traced.Trace = func(uint8, int64) {}
	for _, c := range []struct {
		name string
		cfg  *search.Config
	}{{"fast", cfg}, {"traced", &traced}} {
		t.Run(c.name, func(t *testing.T) {
			a := New(c.cfg, ix).SearchBatch(queries, 2)
			b := New(c.cfg, &full).SearchBatch(queries, 2)
			requireIdentical(t, "filtered vs full plans", a, b)
			for qi := range a {
				sa, sb := a[qi].Stats, b[qi].Stats
				if sa.Hits != sb.Hits || sa.Pairs != sb.Pairs || sa.Extensions != sb.Extensions {
					t.Errorf("query %d: hits/pairs/extensions %d/%d/%d filtered, %d/%d/%d full",
						qi, sa.Hits, sa.Pairs, sa.Extensions, sb.Hits, sb.Pairs, sb.Extensions)
				}
				if sa.Hits == 0 || len(a[qi].HSPs) == 0 {
					t.Errorf("query %d found nothing: the comparison is empty", qi)
				}
			}
		})
	}
}

// held reports whether some block of ix has a position of w.
func held(ix *dbindex.Index, w alphabet.Word) bool {
	for _, b := range ix.Blocks {
		if lo, hi, _ := b.Word(w); hi > lo {
			return true
		}
	}
	return false
}

// TestBatchPlansEachQueryOnce checks that a batch enumerates one plan per
// query, however many blocks its tasks scan.
func TestBatchPlansEachQueryOnce(t *testing.T) {
	cfg, ix, queries := planWorld(t)
	queries = append(queries, alphabet.MustEncode("MK")) // shorter than a word: no plan
	e := New(cfg, ix)
	for _, threads := range []int{1, 2} {
		before := e.planned.Load()
		e.SearchBatch(queries, threads)
		if got, want := e.planned.Load()-before, int64(len(queries)-1); got != want {
			t.Errorf("%d threads: %d plans for %d queries over %d blocks, want %d", threads, got, len(queries)-1, len(ix.Blocks), want)
		}
	}
}

// BenchmarkNeighborPlan times planQuery on queries of the lengths the
// benchmark's workloads mix, over an index that holds the 20 standard
// residues' words: ns/word is the time a listed neighbor word.
func BenchmarkNeighborPlan(b *testing.B) {
	cfg, ix, _ := world(b, 223, 400, 1, 128, 1<<20)
	g := seqgen.New(seqgen.UniprotProfile(), 227)
	e := New(cfg, ix)
	for _, n := range []int{128, 300, 935} {
		q := g.Sequence(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var p neighbor.Plan
			var st search.Stats
			for i := 0; i < b.N; i++ {
				e.planQuery(&p, q, &st)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(p.Words())), "ns/word")
			b.ReportMetric(float64(len(p.Words())), "words")
		})
	}
}

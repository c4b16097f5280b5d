package core

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/hit"
	"repro/internal/matrix"
	"repro/internal/search"
	"repro/internal/ungapped"
)

// TestExtendPairsScoreFirstMatchesFull pins extendPairs's score-first
// extension against the reference state machine (ungapped.Canon), which
// extends every pair in full for its coordinates. In extendPairs a
// pair is scored first (ungapped.ExtendScore) and only a pair that beats the
// trigger is extended for its coordinates, so for the 99.9% of pairs that
// are rejected the two share no kernel, and their agreement is a property to
// test, not one that holds by construction. A traced engine also walks the
// rejected pairs for their coordinates, to trace each extension's subject
// span; that walk must decide nothing. Untraced and traced runs over the
// same sorted pair buffer must hand the gapped stage the same kept
// extensions, count the same Extensions and Kept, and return the same
// alignments, the reference walk says what those are, and the traced run
// must trace exactly the subject span of each of the reference's extensions.
//
// The workload is guarded to contain extensions scoring exactly Trigger:
// that is where "<= Trigger" and "< Trigger" part ways.
func TestExtendPairsScoreFirstMatchesFull(t *testing.T) {
	cfg, ix, queries := world(t, 211, 1500, 4, 300, 1<<18)
	if len(ix.Blocks) < 2 {
		t.Fatalf("want several index blocks, got %d", len(ix.Blocks))
	}
	traced := *cfg
	var spans []int64
	traced.Trace = func(space uint8, off int64) {
		if space == search.SpaceSubject {
			spans = append(spans, off)
		}
	}
	scoreFirst, full := New(cfg, ix), New(&traced, ix)
	sc0, sc1 := scoreFirst.getScratch(), full.getScratch()
	canon := ungapped.Canon{P: cfg.TwoHit}

	var kept, ties int64
	for qi, q := range queries {
		planned(scoreFirst, sc0, q)
		canon.Prof = matrix.NewProfile(cfg.Matrix, q)
		diagBias := len(q) - alphabet.W
		for bi, b := range ix.Blocks {
			coder, err := hit.NewKeyCoder(b.Block.NumSeqs(), len(q)+b.Block.MaxLen-2*alphabet.W+1)
			if err != nil {
				t.Fatal(err)
			}
			sc0.prof.Fill(cfg.Matrix, q)
			sc1.prof.Fill(cfg.Matrix, q)
			var st0, st1 search.Stats
			scoreFirst.detectPrefiltered(sc0, q, bi, coder, &st0)
			scoreFirst.sortPairs(sc0, coder)
			sc1.pairs = append(sc1.pairs[:0], sc0.pairs...)

			subs0 := scoreFirst.extendPairs(sc0, q, bi, coder, diagBias, &st0)
			spans = spans[:0]
			subs1 := full.extendPairs(sc1, q, bi, coder, diagBias, &st1)

			// The reference: Algorithm 1 lines 15-25 over the same buffer.
			var want []ungapped.Ext
			var wantSpans []int64
			var wantExtensions int64
			var d ungapped.DiagState
			for i, p := range sc0.pairs {
				if i == 0 || p.Key != sc0.pairs[i-1].Key {
					d.Reset()
				}
				local, diag := coder.Decode(p.Key)
				s := ix.DB.Seqs[b.Block.Start+local].Data
				ext, extended, keep := canon.ExtendPair(&d, s, int(p.Off()), diag+int(p.Off())-diagBias, int(p.Dist()))
				if extended {
					wantExtensions++
					if ext.Score == cfg.TwoHit.Trigger {
						ties++
					}
					for off := ext.SStart; off < ext.SEnd; off++ {
						wantSpans = append(wantSpans, full.subjOff[b.Block.Start+local]+int64(off))
					}
				}
				if keep {
					want = append(want, ext)
				}
			}

			where := func() string { return fmt.Sprintf("query %d block %d", qi, bi) }
			if st0.Extensions != wantExtensions || st1.Extensions != wantExtensions {
				t.Fatalf("%s: Extensions score-first %d, full %d, reference %d", where(), st0.Extensions, st1.Extensions, wantExtensions)
			}
			if st0.Kept != int64(len(want)) || st1.Kept != int64(len(want)) {
				t.Fatalf("%s: Kept score-first %d, full %d, reference %d", where(), st0.Kept, st1.Kept, len(want))
			}
			if !slices.Equal(spans, wantSpans) {
				t.Fatalf("%s: traced %d subject offsets, the reference's extensions span %d, or they differ", where(), len(spans), len(wantSpans))
			}
			// sc.exts holds what went to the gapped stage, each subject's
			// share in GappedStage's order: equal as sequences between the
			// two paths, equal as a multiset to the reference walk.
			if !slices.Equal(sc0.exts, sc1.exts) {
				t.Fatalf("%s: kept extensions differ:\n score-first %+v\n full        %+v", where(), sc0.exts, sc1.exts)
			}
			if got := sortedExts(sc0.exts); !slices.Equal(got, sortedExts(want)) {
				t.Fatalf("%s: kept extensions differ from the reference walk:\n got  %+v\n want %+v", where(), got, sortedExts(want))
			}
			if st0.GappedExts != st1.GappedExts || !reflect.DeepEqual(subs0, subs1) {
				t.Fatalf("%s: gapped stage output differs (%d vs %d gapped extensions)", where(), st0.GappedExts, st1.GappedExts)
			}
			kept += st0.Kept
		}
	}
	if kept == 0 || ties == 0 {
		t.Fatalf("workload too tame to pin the fork: %d kept extensions, %d scoring exactly Trigger", kept, ties)
	}
	scoreFirst.putScratch(sc0)
	full.putScratch(sc1)

	// And end to end: final HSPs of the two engines.
	a, b := scoreFirst.SearchBatch(queries, 1), full.SearchBatch(queries, 1)
	requireIdentical(t, "score-first vs full extension", a, b)
	for qi := range a {
		if a[qi].Stats.Extensions != b[qi].Stats.Extensions || a[qi].Stats.Kept != b[qi].Stats.Kept {
			t.Fatalf("query %d: Extensions/Kept %d/%d vs %d/%d", qi,
				a[qi].Stats.Extensions, a[qi].Stats.Kept, b[qi].Stats.Extensions, b[qi].Stats.Kept)
		}
	}
}

// sortedExts returns a copy of exts in a total order, for multiset comparison.
func sortedExts(exts []ungapped.Ext) []ungapped.Ext {
	out := slices.Clone(exts)
	slices.SortFunc(out, func(a, b ungapped.Ext) int {
		return cmp.Or(
			cmp.Compare(a.SStart, b.SStart),
			cmp.Compare(a.QStart, b.QStart),
			cmp.Compare(a.QEnd, b.QEnd),
			cmp.Compare(a.Score, b.Score),
		)
	})
	return out
}

// TestGapTriggerBoundary pins where an ungapped extension enters the gapped
// stage: scoring exactly S1 (cfg.TwoHit.Trigger, NCBI's 22 bits: 41 on
// BLOSUM62) it does, scoring S1-1 it does not — in ungapped.Canon, and in
// extendPairs untraced and traced alike. The workload is
// guarded to contain extensions at both scores.
func TestGapTriggerBoundary(t *testing.T) {
	cfg, ix, queries := world(t, 211, 1500, 4, 300, 1<<18)
	s1 := cfg.TwoHit.Trigger
	if s1 != 41 {
		t.Fatalf("BLOSUM62 gap trigger %d, want 41", s1)
	}
	traced := *cfg
	traced.Trace = func(uint8, int64) {}
	scoreFirst, full := New(cfg, ix), New(&traced, ix)
	sc0, sc1 := scoreFirst.getScratch(), full.getScratch()
	defer scoreFirst.putScratch(sc0)
	defer full.putScratch(sc1)
	canon := ungapped.Canon{P: cfg.TwoHit}

	var at, below int
	for qi, q := range queries {
		planned(scoreFirst, sc0, q)
		canon.Prof = matrix.NewProfile(cfg.Matrix, q)
		diagBias := len(q) - alphabet.W
		for bi, b := range ix.Blocks {
			coder, err := hit.NewKeyCoder(b.Block.NumSeqs(), len(q)+b.Block.MaxLen-2*alphabet.W+1)
			if err != nil {
				t.Fatal(err)
			}
			sc0.prof.Fill(cfg.Matrix, q)
			sc1.prof.Fill(cfg.Matrix, q)
			var st0, st1 search.Stats
			scoreFirst.detectPrefiltered(sc0, q, bi, coder, &st0)
			scoreFirst.sortPairs(sc0, coder)
			sc1.pairs = append(sc1.pairs[:0], sc0.pairs...)
			scoreFirst.extendPairs(sc0, q, bi, coder, diagBias, &st0)
			full.extendPairs(sc1, q, bi, coder, diagBias, &st1)

			var d ungapped.DiagState
			for i, p := range sc0.pairs {
				if i == 0 || p.Key != sc0.pairs[i-1].Key {
					d.Reset()
				}
				local, diag := coder.Decode(p.Key)
				s := ix.DB.Seqs[b.Block.Start+local].Data
				ext, extended, keep := canon.ExtendPair(&d, s, int(p.Off()), diag+int(p.Off())-diagBias, int(p.Dist()))
				if !extended || (ext.Score != s1 && ext.Score != s1-1) {
					continue
				}
				enters := ext.Score == s1
				where := fmt.Sprintf("query %d block %d: extension %+v", qi, bi, ext)
				if keep != enters {
					t.Fatalf("%s: Canon keeps it %v, want %v", where, keep, enters)
				}
				if got := slices.Contains(sc0.exts, ext); got != enters {
					t.Fatalf("%s: score-first path hands it to the gapped stage %v, want %v", where, got, enters)
				}
				if got := slices.Contains(sc1.exts, ext); got != enters {
					t.Fatalf("%s: full path hands it to the gapped stage %v, want %v", where, got, enters)
				}
				if enters {
					at++
				} else {
					below++
				}
			}
		}
	}
	if at == 0 || below == 0 {
		t.Fatalf("workload too tame to pin the boundary: %d extensions scoring S1, %d scoring S1-1", at, below)
	}
	t.Logf("%d extensions scoring S1 = %d, %d scoring S1-1", at, s1, below)
}

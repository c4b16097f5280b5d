package gapped_test

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/dbase"
	"repro/internal/gapped"
	"repro/internal/matrix"
	"repro/internal/neighbor"
	"repro/internal/search"
	"repro/internal/ungapped"
)

// The test below is about search.Finalize — what it hands TracebackProf out
// of a ScoredAlignment, and what it reports — and sits here because its
// oracle is the reference traceback, which only this package's tests have.

// gappyCopy returns q with about one residue in 8 substituted and one in 12
// deleted or followed by an inserted run, and the ungapped alignments — the
// stretches of at least 10 residues copied in one piece — between them.
func gappyCopy(rng *rand.Rand, q []alphabet.Code) (s []alphabet.Code, exts []ungapped.Ext) {
	s = randomSeq(rng, 5+rng.Intn(40)) // a flank the alignment must not run into
	run := ungapped.Ext{QStart: 0, SStart: len(s)}
	flush := func(qEnd int) {
		if run.QEnd = qEnd; run.QEnd-run.QStart >= 10 {
			run.SEnd = run.SStart + run.QEnd - run.QStart
			run.Score = matrix.Blosum62.SeqScore(q[run.QStart:run.QEnd], s[run.SStart:run.SEnd])
			exts = append(exts, run)
		}
	}
	for i, c := range q {
		if rng.Intn(12) == 0 {
			flush(i)
			if rng.Intn(2) == 0 {
				s = append(s, randomSeq(rng, 1+rng.Intn(4))...)
				s = append(s, c)
				run = ungapped.Ext{QStart: i, SStart: len(s) - 1}
			} else {
				run = ungapped.Ext{QStart: i + 1, SStart: len(s)}
			}
			continue
		}
		if rng.Intn(8) == 0 {
			c = alphabet.Code(rng.Intn(20))
		}
		s = append(s, c)
	}
	flush(len(q))
	return append(s, randomSeq(rng, 5+rng.Intn(40))...), exts
}

// referenceFinalize is search.Finalize with the reference traceback in place
// of TracebackProf: cut off by E-value, rank by the score pass's score, cap,
// re-align every survivor from its seed with the unbounded reference Extend,
// refresh the statistics, rank again.
func referenceFinalize(cfg *search.Config, q []alphabet.Code, db *dbase.DB, subjects []search.SubjectAlignments) []search.HSP {
	al := gapped.NewAligner(cfg.Matrix, cfg.Gap)
	effQ, effDB := cfg.GappedKA.EffectiveLengths(int64(len(q)), db.TotalResidues, int64(db.NumSeqs()))
	type scored struct {
		hsp          search.HSP
		qSeed, sSeed int
	}
	var all []scored
	for _, sub := range subjects {
		for _, a := range sub.Alns {
			if cfg.GappedKA.EValue(a.Aln.Score, effQ, effDB) <= cfg.EValueCutoff {
				all = append(all, scored{search.HSP{Subject: sub.Subject, Aln: a.Aln}, a.QSeed, a.SSeed})
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return search.LessHSP(&all[i].hsp, &all[j].hsp) })
	if cfg.MaxResults > 0 && len(all) > cfg.MaxResults {
		all = all[:cfg.MaxResults]
	}
	hsps := make([]search.HSP, len(all))
	for i, c := range all {
		full := al.Extend(q, db.Seqs[c.hsp.Subject].Data, c.qSeed, c.sSeed)
		hsps[i] = search.HSP{
			Subject:     c.hsp.Subject,
			SubjectName: db.Seqs[c.hsp.Subject].Name,
			Aln:         full,
			BitScore:    cfg.GappedKA.BitScore(full.Score),
			EValue:      cfg.GappedKA.EValue(full.Score, effQ, effDB),
		}
	}
	search.SortHSPs(hsps)
	return hsps
}

// TestFinalizeMatchesReferenceTraceback runs stage three and stage four the
// way every engine does — search.GappedStage per subject, search.Finalize per
// query — over subjects that are gap-ridden copies of the queries, and
// requires the HSP list (order, spans, scores, operations, bit scores and
// E-values) the reference traceback gives, with and without a MaxResults cap
// that cuts.
func TestFinalizeMatchesReferenceTraceback(t *testing.T) {
	rng := rand.New(rand.NewSource(197))
	cfg, err := search.NewConfig(matrix.Blosum62, neighbor.New(matrix.Blosum62, neighbor.DefaultThreshold))
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]alphabet.Code{randomSeq(rng, 90), randomSeq(rng, 160), randomSeq(rng, 240)}
	var seqs [][]alphabet.Code
	var extsOf [][]ungapped.Ext // per subject, against queries[subject % 3]
	for i := 0; i < 60; i++ {
		s, exts := gappyCopy(rng, queries[i%len(queries)])
		seqs, extsOf = append(seqs, s), append(extsOf, exts)
	}
	db := dbase.New(seqs)

	gapped3, withBoth := 0, 0
	for qi, q := range queries {
		al := gapped.NewAligner(cfg.Matrix, cfg.Gap)
		prof := matrix.NewProfile(cfg.Matrix, q)
		var st search.Stats
		var subjects []search.SubjectAlignments
		for si := qi; si < len(seqs); si += len(queries) {
			if alns := search.GappedStage(cfg, al, prof, q, seqs[si], slices.Clone(extsOf[si]), &st); len(alns) > 0 {
				subjects = append(subjects, search.SubjectAlignments{Subject: si, Alns: alns})
				gapped3 += len(alns)
			}
		}
		for _, maxResults := range []int{cfg.MaxResults, 7} {
			c := *cfg
			c.MaxResults = maxResults
			got := search.Finalize(&c, al, prof, qi, q, db, subjects, st)
			want := referenceFinalize(&c, q, db, subjects)
			if !reflect.DeepEqual(got.HSPs, want) {
				t.Fatalf("query %d, MaxResults %d: Finalize reports\n%+v\nthe reference traceback gives\n%+v", qi, maxResults, got.HSPs, want)
			}
			if got.Stats.Tracebacks != int64(len(want)) {
				t.Fatalf("query %d: %d tracebacks counted for %d HSPs", qi, got.Stats.Tracebacks, len(want))
			}
			if maxResults == 7 && len(want) != 7 {
				t.Fatalf("query %d: %d HSPs under a cap of 7; the cap no longer cuts", qi, len(want))
			}
			for i, h := range got.HSPs {
				if err := h.Aln.Validate(cfg.Matrix, q, seqs[h.Subject], cfg.Gap); err != nil {
					t.Fatalf("query %d HSP %d: %v", qi, i, err)
				}
				if maxResults != 7 && slices.Contains(h.Aln.Ops, gapped.OpIns) && slices.Contains(h.Aln.Ops, gapped.OpDel) {
					withBoth++
				}
			}
		}
	}
	if gapped3 < 60 || withBoth < 30 {
		t.Fatalf("%d scored alignments, %d with both gap kinds: the world is not gap-rich any more", gapped3, withBoth)
	}
}

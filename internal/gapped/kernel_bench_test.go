package gapped

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/matrix"
	"repro/internal/neighbor"
	"repro/internal/qindex"
	"repro/internal/seqgen"
	"repro/internal/stats"
	"repro/internal/ungapped"
)

// benchPair is one score-only extension of the microbenchmark.
type benchPair struct {
	q, s         []alphabet.Code
	prof         *matrix.Profile
	qSeed, sSeed int
}

// benchPairs draws random 350 x 350 pairs with the seed in the middle third
// of both sequences, so that each extension runs two halves of comparable
// size — the shape stage three sees for a mid-length query.
func benchPairs(n int) []benchPair {
	rng := rand.New(rand.NewSource(42))
	const l = 350
	pairs := make([]benchPair, n)
	for i := range pairs {
		q, s := equivSeq(rng, l), equivSeq(rng, l)
		pairs[i] = benchPair{
			q: q, s: s,
			prof:  matrix.NewProfile(matrix.Blosum62, q),
			qSeed: l/3 + rng.Intn(l/3),
			sSeed: l/3 + rng.Intn(l/3),
		}
	}
	return pairs
}

var benchSink int

// BenchmarkExtendScoreProf measures the score-only gapped kernel.
//
//	default  the engine's Params: unrelated sequences die inside the X-drop
//	         band, so this is the cost of rejecting a false trigger — row 0,
//	         band bookkeeping and all three zones of a narrow band
//	full     an X-drop no score reaches: every row spans the whole subject,
//	         the cell count is known ((rows) x (columns) per half) and the
//	         interior loop is all there is; reports ns/cell
//	engine   every extension stage three scores for the serve_* shape
//	         (serveShape), in the engine's order: triggers from real word
//	         hits, bands tens of columns wide; reports ns/cell
//	reference the same as "default" through the matrix-indexed rolling-row
//	         kernel that is the fuzzers' oracle
func BenchmarkExtendScoreProf(b *testing.B) {
	pairs := benchPairs(64)
	run := func(b *testing.B, a *Aligner, ref bool) {
		b.ReportAllocs()
		sink := 0
		r := a.reference()
		for i := 0; i < b.N; i++ {
			p := &pairs[i%len(pairs)]
			if ref {
				sink += r.ExtendScore(p.q, p.s, p.qSeed, p.sSeed).Score
			} else {
				sink += a.ExtendScoreProf(p.prof, p.q, p.s, p.qSeed, p.sSeed).Score
			}
		}
		benchSink = sink
	}
	b.Run("default", func(b *testing.B) {
		run(b, NewAligner(matrix.Blosum62, DefaultParams()), false)
	})
	b.Run("full", func(b *testing.B) {
		p := DefaultParams()
		p.XDrop = 1 << 20
		run(b, NewAligner(matrix.Blosum62, p), false)
		cells := 0
		for i := range pairs {
			pr := &pairs[i]
			cells += (len(pr.q)-pr.qSeed)*(len(pr.s)-pr.sSeed+1) + pr.qSeed*(pr.sSeed+1)
		}
		perOp := float64(cells) / float64(len(pairs))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perOp, "ns/cell")
	})
	b.Run("engine", func(b *testing.B) {
		scored, _ := serveShape()
		a := NewAligner(matrix.Blosum62, DefaultParams())
		ref := a.reference()
		for _, c := range scored {
			for _, h := range halvesOf(c.q, c.s, c.qSeed, c.sSeed) {
				ref.extendHalf(h.q, h.s)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		sink := 0
		for i := 0; i < b.N; i++ {
			c := &scored[i%len(scored)]
			sink += a.ExtendScoreProf(c.prof, c.q, c.s, c.qSeed, c.sSeed).Score
		}
		benchSink = sink
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(float64(ref.tbCells)/float64(len(scored))), "ns/cell")
	})
	b.Run("reference", func(b *testing.B) {
		run(b, NewAligner(matrix.Blosum62, DefaultParams()), true)
	})
}

// tbCase is one stage-four re-alignment: what search.Finalize hands
// TracebackProf for one reported alignment.
type tbCase struct {
	q, s         []alphabet.Code
	prof         *matrix.Profile
	qSeed, sSeed int
	pre          Alignment
}

// serveMix is the set of alignments the engine re-aligns for the serve_*
// shape of the end-to-end benchmark (the second result of serveShape).
func serveMix() []tbCase {
	_, reported := serveShape()
	return reported
}

// serveShape returns, for the serve_* shape of the end-to-end benchmark,
// every extension stage three scores (pre is its result) and the alignments
// stage four re-aligns — 32 queries of 128 residues sampled from
// a 2000-sequence uniprot-like database — found the way the engine finds
// them (this package cannot import it): neighbourhood word hits, the two-hit
// rule and the ungapped trigger per diagonal, stage three's canonical order,
// containment and duplicate rules with the seed at the ungapped alignment's
// midpoint, and the E-value cutoff of 10 over the whole database. Most of
// them are chance alignments a little above the cutoff, whose X-drop tail is
// several times their length; the rest are the planted homologs.
var serveShape = sync.OnceValues(func() (scored, mix []tbCase) {
	g := seqgen.New(seqgen.UniprotProfile(), 19)
	db := g.Database(2000)
	queries := g.Queries(db, 32, 128)
	var dbLen int64
	for _, s := range db {
		dbLen += int64(len(s))
	}
	m := matrix.Blosum62
	nbr := neighbor.New(m, neighbor.DefaultThreshold)
	gp := DefaultParams()
	ka, err := stats.GappedParams(m, gp.GapOpen, gp.GapExtend)
	if err != nil {
		panic(err)
	}
	ung, err := stats.UngappedParams(m, &stats.RobinsonFreqs)
	if err != nil {
		panic(err)
	}
	twoHit := ungapped.Params{Window: ungapped.DefaultWindow, XDrop: ungapped.DefaultXDrop, Trigger: ung.RawScoreForBits(ungapped.GapTriggerBits)}
	a := NewAligner(m, gp)
	var diags []ungapped.DiagState
	var exts []ungapped.Ext
	for _, q := range queries {
		ix := qindex.Build(q, nbr)
		prof := matrix.NewProfile(m, q)
		canon := &ungapped.Canon{P: twoHit, Prof: prof}
		effQ, effDB := ka.EffectiveLengths(int64(len(q)), dbLen, int64(len(db)))
		for _, s := range db {
			if len(s) < alphabet.W {
				continue
			}
			diags = slices.Grow(diags[:0], len(q)+len(s))[:len(q)+len(s)]
			for i := range diags {
				diags[i].Reset()
			}
			exts = exts[:0]
			for sOff := 0; sOff+alphabet.W <= len(s); sOff++ {
				for _, qPos := range ix.Positions(alphabet.WordAt(s, sOff)) {
					d := &diags[sOff-int(qPos)+len(q)-alphabet.W]
					if ext, _, _, keep := canon.Step(d, s, int(qPos), sOff); keep {
						exts = append(exts, ext)
					}
				}
			}
			slices.SortStableFunc(exts, func(a, b ungapped.Ext) int {
				return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.QStart, b.QStart), cmp.Compare(a.SStart, b.SStart))
			})
			first := len(mix)
		nextExt:
			for _, e := range exts {
				for _, c := range mix[first:] {
					if e.QStart >= c.pre.QStart && e.QEnd <= c.pre.QEnd && e.SStart >= c.pre.SStart && e.SEnd <= c.pre.SEnd {
						continue nextExt
					}
				}
				qSeed := (e.QStart + e.QEnd) / 2
				sSeed := e.SStart + (qSeed - e.QStart)
				pre := a.ExtendScoreProf(prof, q, s, qSeed, sSeed)
				scored = append(scored, tbCase{q, s, prof, qSeed, sSeed, pre})
				if pre.Score <= 0 || ka.EValue(pre.Score, effQ, effDB) > 10 {
					continue
				}
				for _, c := range mix[first:] {
					if sameAln(c.pre, pre) {
						continue nextExt
					}
				}
				mix = append(mix, tbCase{q, s, prof, qSeed, sSeed, pre})
			}
		}
	}
	return scored, mix
})

// checkServeMix checks every half of serveMix against the reference (checkHalf)
// and returns the work both sides did.
func checkServeMix(tb testing.TB) tracebackTally {
	a := NewAligner(matrix.Blosum62, DefaultParams())
	ref := a.reference()
	var tally tracebackTally
	for _, c := range serveMix() {
		for _, h := range halvesOf(c.q, c.s, c.qSeed, c.sSeed) {
			checkHalf(tb, a, ref, c.prof, h, &tally)
		}
	}
	return tally
}

// BenchmarkTraceback measures stage four on serveMix, one re-alignment per
// iteration, so that the two things TracebackProf changed can be read apart:
//
//	reference     the matrix-indexed traceback DP that served before: three
//	              appends per cell, every row the X-drop allows
//	kept          the profile kernel with its rows kept, no bound: the same
//	              cells, so the difference to "reference" is the kernel
//	kept-bounded  what Finalize runs: the same kernel stopped at the score
//	              pass's endpoint, so the difference to "kept" is the bound
//
// cells/alignment is the DP work (counted in a pass of its own, outside the
// timer); the last two differ in nothing else.
func BenchmarkTraceback(b *testing.B) {
	mix := serveMix()
	a := NewAligner(matrix.Blosum62, DefaultParams())
	ref := a.reference()
	tally := checkServeMix(b)
	run := func(cells int, realign func(c *tbCase) Alignment) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += realign(&mix[i%len(mix)]).Score
			}
			benchSink = sink
			b.ReportMetric(float64(cells)/float64(len(mix)), "cells/alignment")
		}
	}
	b.Run("reference", run(tally.refCells, func(c *tbCase) Alignment {
		return ref.Extend(c.q, c.s, c.qSeed, c.sSeed)
	}))
	b.Run("kept", run(tally.refCells, func(c *tbCase) Alignment {
		return a.TracebackProf(c.prof, c.q, c.s, c.qSeed, c.sSeed, noBound(c.qSeed, c.sSeed))
	}))
	b.Run("kept-bounded", run(tally.boundCells, func(c *tbCase) Alignment {
		return a.TracebackProf(c.prof, c.q, c.s, c.qSeed, c.sSeed, c.pre)
	}))
}

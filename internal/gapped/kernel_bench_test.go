package gapped

import (
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/matrix"
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
//	reference the same as "default" through the matrix-indexed rolling-row
//	         kernel that is the fuzzers' oracle
func BenchmarkExtendScoreProf(b *testing.B) {
	pairs := benchPairs(64)
	run := func(b *testing.B, a *Aligner, ref bool) {
		b.ReportAllocs()
		sink := 0
		for i := 0; i < b.N; i++ {
			p := &pairs[i%len(pairs)]
			if ref {
				sink += a.ExtendScore(p.q, p.s, p.qSeed, p.sSeed).Score
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
	b.Run("reference", func(b *testing.B) {
		run(b, NewAligner(matrix.Blosum62, DefaultParams()), true)
	})
}

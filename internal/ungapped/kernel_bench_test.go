package ungapped

import (
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/matrix"
)

// benchSeeds builds a deterministic workload shaped like one (block, query)
// task of the engine: one mid-length query, a subject stream the size of an
// index block, and far more distinct seeds than a branch predictor can
// memorise, each with a need drawn from [0, DefaultWindow-W) as the first
// hit's distance sets it, so that the right walk runs only as often as the
// engine runs it. (512 seeds cycled over a 4096-residue subject, as this file used
// to draw, measure a trained predictor: every X-drop exit repeats every 512
// calls and the kernels' real cost — the unpredictable exit — disappears.)
func benchSeeds(tb testing.TB) (*matrix.Profile, []alphabet.Code, [][3]int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	randSeq := func(n int) []alphabet.Code {
		s := make([]alphabet.Code, n)
		for i := range s {
			s[i] = alphabet.Code(rng.Intn(20))
		}
		return s
	}
	q := randSeq(300)
	s := randSeq(1 << 17)
	prof := matrix.NewProfile(matrix.Blosum62, q)
	seeds := make([][3]int, 1<<16)
	for i := range seeds {
		seeds[i] = [3]int{
			1 + rng.Intn(len(q)-alphabet.W-1),
			1 + rng.Intn(len(s)-alphabet.W-1),
			rng.Intn(DefaultWindow - alphabet.W),
		}
	}
	return prof, s, seeds
}

// BenchmarkUngappedExtend times the two kernels — the coordinates walk and
// the score-only reject walk — on the same seed set at the engine's X-drop;
// both must also be allocation free (pinned by TestUngappedExtendZeroAlloc
// and TestUngappedExtendScoreZeroAlloc).
func BenchmarkUngappedExtend(b *testing.B) {
	prof, s, seeds := benchSeeds(b)
	xDrop := DefaultXDrop

	b.Run("profile", func(b *testing.B) {
		b.ReportAllocs()
		sink := 0
		for i := 0; i < b.N; i++ {
			sd := seeds[i%len(seeds)]
			ext, _ := ExtendProfile(prof, s, sd[0], sd[1], xDrop, sd[2])
			sink += ext.Score
		}
		benchSink = sink
	})
	b.Run("score", func(b *testing.B) {
		b.ReportAllocs()
		sink := 0
		for i := 0; i < b.N; i++ {
			sd := seeds[i%len(seeds)]
			score, _ := ExtendScore(prof, s, sd[0], sd[1], xDrop, sd[2])
			sink += score
		}
		benchSink = sink
	})
}

var benchSink int

// TestUngappedExtendZeroAlloc pins the profile kernel's zero-allocation
// contract: the decoupled pipeline calls it tens of millions of times per
// batch and any per-call allocation would dominate the stage budget.
func TestUngappedExtendZeroAlloc(t *testing.T) {
	prof, s, seeds := benchSeeds(t)
	allocs := testing.AllocsPerRun(100, func() {
		for _, sd := range seeds[:32] {
			ExtendProfile(prof, s, sd[0], sd[1], 20, sd[2])
		}
	})
	if allocs != 0 {
		t.Fatalf("ExtendProfile allocated %.1f times per run; want 0", allocs)
	}
}

// TestUngappedExtendScoreZeroAlloc is the same contract for the score-only
// walk, which now runs for every pair the extension stage sees.
func TestUngappedExtendScoreZeroAlloc(t *testing.T) {
	prof, s, seeds := benchSeeds(t)
	allocs := testing.AllocsPerRun(100, func() {
		for _, sd := range seeds[:32] {
			score, _ := ExtendScore(prof, s, sd[0], sd[1], 20, sd[2])
			benchSink += score
		}
	})
	if allocs != 0 {
		t.Fatalf("ExtendScore allocated %.1f times per run; want 0", allocs)
	}
}

package core

import (
	"fmt"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/hit"
	"repro/internal/search"
)

// BenchmarkHitDetect measures the two-hit detection kernel (prefilter reset
// + neighbor scan + packed last-hit pair test + branchless pair emission)
// over one warm (block, query) task — the stage the paper's Figure 4 calls
// out as the memory-bound majority of BLASTP runtime. The queries are
// prefixes of one 4 000-residue query: 1 026 residues is the longest the
// 16-bit last-hit slots serve, 1 027 the shortest that takes the 32-bit ones.
// Each is planned once, as a search plans it for all its tasks
// (BenchmarkNeighborPlan times that). The per-op time is one full detection
// pass; ns/hit divides it by the hits the pass visits.
func BenchmarkHitDetect(b *testing.B) {
	cfg, ix, _ := world(b, 173, 800, 1, 300, 1<<19)
	long := queryFrom(ix, 181, 4000)
	blk := ix.Blocks[0]
	e := New(cfg, ix)
	for _, n := range []int{300, search.MaxQOff16 + alphabet.W, search.MaxQOff16 + alphabet.W + 1, 4000} {
		q := long[:n]
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			maxDiags := len(q) + blk.Block.MaxLen - 2*alphabet.W + 1
			coder, err := hit.NewKeyCoder(blk.Block.NumSeqs(), maxDiags)
			if err != nil {
				b.Fatal(err)
			}
			sc := e.getScratch()
			defer e.putScratch(sc)
			planned(e, sc, q)
			var st search.Stats
			for i := 0; i < 2; i++ { // warm the scratch to steady state
				e.detectPrefiltered(sc, q, 0, coder, &st)
			}
			st = search.Stats{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.detectPrefiltered(sc, q, 0, coder, &st)
			}
			b.StopTimer()
			if b.N > 0 && st.Hits > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Hits), "ns/hit")
				b.ReportMetric(float64(st.Hits)/float64(b.N), "hits/op")
				b.ReportMetric(float64(st.Pairs)/float64(b.N), "pairs/op")
			}
		})
	}
}

// TestHitDetectZeroAlloc pins the warm detection kernel (including the
// compaction-style pair buffer) at zero allocations per task.
func TestHitDetectZeroAlloc(t *testing.T) {
	cfg, ix, queries := world(t, 179, 400, 1, 300, 1<<18)
	q := queries[0]
	blk := ix.Blocks[0]
	maxDiags := len(q) + blk.Block.MaxLen - 2*alphabet.W + 1
	coder, err := hit.NewKeyCoder(blk.Block.NumSeqs(), maxDiags)
	if err != nil {
		t.Fatal(err)
	}
	e := New(cfg, ix)
	sc := e.getScratch()
	defer e.putScratch(sc)
	planned(e, sc, q)
	var st search.Stats
	for i := 0; i < 2; i++ {
		e.detectPrefiltered(sc, q, 0, coder, &st)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		e.detectPrefiltered(sc, q, 0, coder, &st)
	}); allocs != 0 {
		t.Errorf("warm hit detection allocates %.1f objects per task, want 0", allocs)
	}
}

package core

import (
	"testing"

	"repro/internal/alphabet"
	"repro/internal/hit"
	"repro/internal/search"
)

// TestHotPathSteadyStateAllocs pins the allocation behaviour of the
// per-task hot path (hit detection + reordering, the work SearchBatch's grid
// scheduler runs once per (block, query) cell): after the per-worker scratch
// has warmed up, it must be completely allocation-free.
func TestHotPathSteadyStateAllocs(t *testing.T) {
	cfg, ix, queries := world(t, 83, 100, 1, 256, 8192)
	q := queries[0]
	b := ix.Blocks[0]
	maxDiags := len(q) + b.Block.MaxLen - 2*alphabet.W + 1
	coder, err := hit.NewKeyCoder(b.Block.NumSeqs(), maxDiags)
	if err != nil {
		t.Fatal(err)
	}
	e := New(cfg, ix)
	sc := e.getScratch()
	defer e.putScratch(sc)
	planned(e, sc, q)
	var st search.Stats
	for i := 0; i < 2; i++ { // warm up: grow buffers to steady state
		e.detectPrefiltered(sc, q, 0, coder, &st)
		e.sortPairs(sc, coder)
	}
	allocs := testing.AllocsPerRun(20, func() {
		e.detectPrefiltered(sc, q, 0, coder, &st)
		e.sortPairs(sc, coder)
	})
	if allocs != 0 {
		t.Errorf("detect+sort allocates %.1f objects per task, want 0", allocs)
	}
}

// TestSearchBlockAllocBound bounds the full per-task pipeline (detect, sort,
// extend, gapped stage) at steady state. The gapped stage legitimately
// allocates the alignments it returns, so the bound is a small constant, not
// zero; a regression that re-allocates scratch per task blows well past it.
func TestSearchBlockAllocBound(t *testing.T) {
	cfg, ix, queries := world(t, 89, 100, 1, 256, 8192)
	q := queries[0]
	e := New(cfg, ix)
	sc := e.getScratch()
	defer e.putScratch(sc)
	planned(e, sc, q)
	var st search.Stats
	for i := 0; i < 2; i++ {
		e.searchBlock(sc, q, 0, &st)
	}
	allocs := testing.AllocsPerRun(20, func() {
		e.searchBlock(sc, q, 0, &st)
	})
	// Measured ~77 (result slices and gapped-stage output for this world's
	// alignments); the pre-refactor per-call scratch alone was hundreds.
	const maxAllocs = 96
	if allocs > maxAllocs {
		t.Errorf("searchBlock allocates %.1f objects per task at steady state, want <= %d", allocs, maxAllocs)
	}
}

// TestSearchReusesScratchAcrossCalls verifies that searches ride the scratch
// pool: repeated one-query searches must not re-allocate the last-hit arrays,
// pair buffers, or the gapped aligner.
func TestSearchReusesScratchAcrossCalls(t *testing.T) {
	cfg, ix, queries := world(t, 97, 100, 1, 256, 8192)
	q := queries[0]
	e := New(cfg, ix)
	var first search.QueryResult
	for i := 0; i < 2; i++ {
		first = searchOne(e, q)
	}
	warm := testing.AllocsPerRun(10, func() {
		searchOne(e, q)
	})
	// A fresh engine pays the scratch build (last-hit arrays, aligner DP
	// rows, hit buffers) on its first call; the pooled engine must not pay
	// it again per call. AllocsPerRun warms up with one extra call, so the
	// cold cost is measured by building a fresh engine inside the closure.
	cold := testing.AllocsPerRun(1, func() {
		searchOne(New(cfg, ix), q)
	})
	if warm >= cold {
		t.Errorf("warm search allocates %.0f objects, cold first call %.0f; pool is not reusing scratch", warm, cold)
	}
	if res := searchOne(e, q); len(res.HSPs) != len(first.HSPs) {
		t.Errorf("pooled search changed results: %d vs %d HSPs", len(res.HSPs), len(first.HSPs))
	}
}

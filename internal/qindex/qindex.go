// Package qindex builds the query index used by classic (query-indexed)
// BLASTP: a lookup table from every possible W-letter word to the query
// positions whose word is a neighbor of it. Subject sequences are then
// scanned word by word and each subject word is looked up directly
// (Section II-A, "query indexed search").
//
// Following NCBI's lookup-table design (Section VI), neighbor positions are
// expanded into the table at build time — one memory access per subject
// word at scan time — and a presence-vector bitset (pv array) lets the scan
// skip the many words with no query positions without touching the table.
package qindex

import (
	"repro/internal/alphabet"
	"repro/internal/neighbor"
)

// Index is a query lookup table over all NumWords possible words.
type Index struct {
	QueryLen int
	// pv is the presence vector: bit w set iff word w has positions.
	pv []uint64
	// CSR layout: positions for word w are flat[offsets[w]:offsets[w+1]].
	offsets []int32
	flat    []int32
}

// Build constructs the index for an encoded query, expanding positions
// through the query's neighbors (so index[v] holds every query offset whose
// word scores >= T against v). Queries shorter than W produce an index with
// no positions.
func Build(query []alphabet.Code, nbr *neighbor.Enumerator) *Index {
	ix := &Index{
		QueryLen: len(query),
		pv:       make([]uint64, (alphabet.NumWords+63)/64),
		offsets:  make([]int32, alphabet.NumWords+1),
	}
	var plan neighbor.Plan
	plan.Fill(nbr, query, nil)
	// Counting pass.
	counts := make([]int32, alphabet.NumWords)
	for _, v := range plan.Words() {
		counts[v]++
	}
	sum := int32(0)
	for w := 0; w < alphabet.NumWords; w++ {
		ix.offsets[w] = sum
		sum += counts[w]
	}
	ix.offsets[alphabet.NumWords] = sum
	ix.flat = make([]int32, sum)
	// Fill pass: positions for each word end up in increasing query-offset
	// order because the outer scan goes left to right.
	next := make([]int32, alphabet.NumWords)
	copy(next, ix.offsets[:alphabet.NumWords])
	for off := 0; off < plan.Offsets(); off++ {
		for _, v := range plan.At(off) {
			ix.flat[next[v]] = int32(off)
			next[v]++
			ix.pv[int(v)>>6] |= 1 << (uint(v) & 63)
		}
	}
	return ix
}

// Positions returns the query offsets stored under word w, in increasing
// order. The returned slice is a view; callers must not modify it.
func (ix *Index) Positions(w alphabet.Word) []int32 {
	return ix.flat[ix.offsets[w]:ix.offsets[w+1]]
}

// Base returns the flat-array index of the first position stored under w,
// used by the cache simulator to map lookups to index addresses.
func (ix *Index) Base(w alphabet.Word) int32 { return ix.offsets[w] }

// Present reports whether any query position is stored under w, via the pv
// bitset (one load, no table access).
func (ix *Index) Present(w alphabet.Word) bool {
	return ix.pv[int(w)>>6]&(1<<(uint(w)&63)) != 0
}

// TotalPositions returns the number of (word, position) entries, the
// redundancy cost of expanding neighbors into the table that the paper's
// two-level database index avoids (Section III).
func (ix *Index) TotalPositions() int { return len(ix.flat) }

// SizeBytes estimates the index memory footprint.
func (ix *Index) SizeBytes() int64 {
	return int64(len(ix.flat))*4 + int64(len(ix.offsets))*4 + int64(len(ix.pv))*8
}

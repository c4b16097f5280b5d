// Package neighbor computes neighboring words: for a W-letter word w, the
// set of words v whose aligned word score against w is at least the
// threshold T (BLASTP default T=11 under BLOSUM62). Hits between a query
// word and any of its neighbors in a subject sequence count as hits
// (paper Section II-A), so both the query index and the database index need
// this set.
//
// The paper's database index does not expand positions per neighbor (that
// would blow up the index); instead it keeps a separate neighbor lookup
// table keyed by word (Section III, Fig 3b). Table is exactly that
// structure: one flat position array plus per-word offsets.
package neighbor

import (
	"repro/internal/alphabet"
	"repro/internal/matrix"
)

// DefaultThreshold is the standard BLASTP neighbor threshold T for BLOSUM62.
const DefaultThreshold = 11

// Table maps every word to its neighbor list, stored as one flat slice with
// per-word offsets (CSR layout) for cache-friendly lookups.
type Table struct {
	Threshold int
	Matrix    *matrix.Matrix
	offsets   []int32 // len NumWords+1
	flat      []alphabet.Word
}

// Build enumerates neighbors for all words under the given matrix and
// threshold. A word is its own neighbor only when its self-score reaches the
// threshold, matching NCBI semantics (true for all words over the standard
// residues with BLOSUM62 and T=11, but not e.g. for words containing X).
//
// The table is held for the life of the process, so it is built at its exact
// size: a first pass counts each word's neighbors, a second fills them in.
func Build(m *matrix.Matrix, threshold int) *Table {
	t := &Table{
		Threshold: threshold,
		Matrix:    m,
		offsets:   make([]int32, alphabet.NumWords+1),
	}
	// maxRow[c] = best achievable score when matching residue c.
	var maxRow [alphabet.Size]int
	for c := 0; c < alphabet.Size; c++ {
		best := m.Score(alphabet.Code(c), 0)
		for d := 1; d < alphabet.Size; d++ {
			best = max(best, m.Score(alphabet.Code(c), alphabet.Code(d)))
		}
		maxRow[c] = best
	}
	// appendNeighbors appends the neighbors of w to dst in increasing word
	// order.
	appendNeighbors := func(dst []alphabet.Word, w alphabet.Word) []alphabet.Word {
		w0, w1, w2 := w.Unpack()
		row0, row1, row2 := m.Row(w0), m.Row(w1), m.Row(w2)
		rest1 := maxRow[w1] + maxRow[w2]
		for c0 := 0; c0 < alphabet.Size; c0++ {
			s0 := int(row0[c0])
			if s0+rest1 < threshold {
				continue
			}
			base0 := alphabet.Word(c0) * alphabet.Size * alphabet.Size
			for c1 := 0; c1 < alphabet.Size; c1++ {
				s1 := s0 + int(row1[c1])
				if s1+maxRow[w2] < threshold {
					continue
				}
				base1 := base0 + alphabet.Word(c1)*alphabet.Size
				for c2 := 0; c2 < alphabet.Size; c2++ {
					if s1+int(row2[c2]) >= threshold {
						dst = append(dst, base1+alphabet.Word(c2))
					}
				}
			}
		}
		return dst
	}
	var buf []alphabet.Word
	for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
		buf = appendNeighbors(buf[:0], w)
		t.offsets[w+1] = t.offsets[w] + int32(len(buf))
	}
	t.flat = make([]alphabet.Word, 0, t.offsets[alphabet.NumWords])
	for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
		t.flat = appendNeighbors(t.flat, w)
	}
	return t
}

// Neighbors returns the neighbor list of w (a view into the table; callers
// must not modify it). The list is sorted in increasing word order by
// construction.
func (t *Table) Neighbors(w alphabet.Word) []alphabet.Word {
	return t.flat[t.offsets[w]:t.offsets[w+1]]
}

// NumNeighbors returns the neighbor count of w without materializing the list.
func (t *Table) NumNeighbors(w alphabet.Word) int {
	return int(t.offsets[w+1] - t.offsets[w])
}

// TotalEntries returns the total number of (word, neighbor) pairs, which is
// the memory footprint driver of the two-level index structure.
func (t *Table) TotalEntries() int { return len(t.flat) }

// SizeBytes returns the in-memory size of the table: the flat neighbor
// array, 2 bytes an entry, plus the offset array. Used when accounting index
// sizes against the paper's Section III discussion.
func (t *Table) SizeBytes() int64 {
	return int64(cap(t.flat))*2 + int64(cap(t.offsets))*4
}

// Package neighbor computes neighboring words: for a W-letter word w, the
// set of words v whose aligned word score against w is at least the
// threshold T (BLASTP default T=11 under BLOSUM62). Hits between a query
// word and any of its neighbors in a subject sequence count as hits
// (paper Section II-A), so both the query index and the database index need
// this set.
//
// The paper's database index does not expand positions per neighbor (that
// would blow up the index); it looks each query word's neighbors up at
// search time instead (Section III, Fig 3b). The lookup need not be a table
// held per word: Enumerator lists a word's neighbors on demand, the way NCBI
// BLAST enumerates a query's neighbors when it builds the query's lookup
// table, from state the size of the alphabet squared — for each residue and
// each score a bit mask of the residues that score at least that against it.
package neighbor

import (
	"math/bits"

	"repro/internal/alphabet"
	"repro/internal/matrix"
)

// DefaultThreshold is the standard BLASTP neighbor threshold T for BLOSUM62.
const DefaultThreshold = 11

// allCodes has a bit for every residue code.
const allCodes = 1<<alphabet.Size - 1

// Enumerator lists the neighbors of any word under one matrix and
// threshold. It holds no per-word state; see SizeBytes.
type Enumerator struct {
	Threshold int
	Matrix    *matrix.Matrix
	// atLeast[a*span+k] has bit c set when residue c scores at least lo+k
	// against residue a: k covers every score of the matrix and one past
	// its maximum, whose mask is empty. A need below lo reads k = 0, every
	// residue; one above the maximum reads the empty mask.
	atLeast  []uint32
	lo, span int
	// maxRow[a] is the best score residue a reaches against any residue.
	maxRow [alphabet.Size]int8
}

// New builds the enumerator of the neighbors under m and threshold. A word
// is its own neighbor only when its self-score reaches the threshold,
// matching NCBI semantics (true for all words over the standard residues
// with BLOSUM62 and T=11, but not e.g. for words containing X).
func New(m *matrix.Matrix, threshold int) *Enumerator {
	e := &Enumerator{Threshold: threshold, Matrix: m, lo: m.Min(), span: m.Max() - m.Min() + 2}
	e.atLeast = make([]uint32, alphabet.Size*e.span)
	for a := 0; a < alphabet.Size; a++ {
		row := m.Row(alphabet.Code(a))
		e.maxRow[a] = row[0]
		for c, s := range row {
			e.maxRow[a] = max(e.maxRow[a], s)
			for k := 0; e.lo+k <= int(s); k++ {
				e.atLeast[a*e.span+k] |= 1 << c
			}
		}
	}
	return e
}

// codes returns the residues that score at least need against residue a.
func (e *Enumerator) codes(a alphabet.Code, need int) uint32 {
	return e.atLeast[int(a)*e.span+min(max(need-e.lo, 0), e.span-1)]
}

// Append appends the neighbors of w to dst in ascending word order.
func (e *Enumerator) Append(dst []alphabet.Word, w alphabet.Word) []alphabet.Word {
	return e.AppendIn(dst, w, &all)
}

// AppendIn appends the neighbors of w that are in the set in to dst, in
// ascending word order. The walk visits only residues that can still reach
// the threshold: the first residue's candidates are those that score enough
// with the best the other two can add, the second's those that do given the
// first's score, and the third's, masked by in, are the neighbors. Each
// level is one mask, walked a set bit at a time.
func (e *Enumerator) AppendIn(dst []alphabet.Word, w alphabet.Word, in *Set) []alphabet.Word {
	w0, w1, w2 := w.Unpack()
	row0, row1 := e.Matrix.Row(w0), e.Matrix.Row(w1)
	lo, last := e.lo, e.span-1
	at1, at2 := e.atLeast[int(w1)*e.span:][:last+1], e.atLeast[int(w2)*e.span:][:last+1]
	max2 := int(e.maxRow[w2])
	for m0 := e.codes(w0, e.Threshold-int(e.maxRow[w1])-max2); m0 != 0; m0 &= m0 - 1 {
		c0 := bits.TrailingZeros32(m0)
		need1 := e.Threshold - int(row0[c0]) - lo
		for m1 := at1[min(max(need1-max2, 0), last)]; m1 != 0; m1 &= m1 - 1 {
			c1 := bits.TrailingZeros32(m1)
			prefix := c0*alphabet.Size + c1
			base := alphabet.Word(prefix * alphabet.Size)
			for m2 := at2[min(max(need1-int(row1[c1]), 0), last)] & in[prefix]; m2 != 0; m2 &= m2 - 1 {
				dst = append(dst, base+alphabet.Word(bits.TrailingZeros32(m2)))
			}
		}
	}
	return dst
}

// SizeBytes returns the memory the enumerator holds besides its matrix: the
// masks, 4 bytes each, and the row maxima.
func (e *Enumerator) SizeBytes() int64 {
	return int64(cap(e.atLeast))*4 + int64(len(e.maxRow))
}

// Set is a set of words, a bit per word: bit c2 of s[c0*Size+c1] stands for
// the word (c0, c1, c2). It has the shape of AppendIn's innermost mask, so
// that filtering a word's neighbors by it costs one AND per two-residue
// prefix.
type Set [alphabet.Size * alphabet.Size]uint32

// all holds every word.
var all = func() (s Set) {
	for i := range s {
		s[i] = allCodes
	}
	return s
}()

// Add puts w in the set.
func (s *Set) Add(w alphabet.Word) { s[w/alphabet.Size] |= 1 << (w % alphabet.Size) }

// Has reports whether w is in the set.
func (s *Set) Has(w alphabet.Word) bool { return s[w/alphabet.Size]>>(w%alphabet.Size)&1 != 0 }

// Union adds every word of o to the set.
func (s *Set) Union(o *Set) {
	for i := range s {
		s[i] |= o[i]
	}
}

// Plan is the neighbor words of a query, query offset after query offset:
// what a search visits for it. It is built once per query and read by every
// scan of the query.
type Plan struct {
	// The words of query offset i are words[ends[i]:ends[i+1]], ascending;
	// ends has one entry per offset and a leading 0.
	ends  []int32
	words []alphabet.Word
}

// Fill makes p the plan of query q under e, keeping only the neighbors in
// the set in (every neighbor when in is nil). It reuses p's storage.
func (p *Plan) Fill(e *Enumerator, q []alphabet.Code, in *Set) {
	if in == nil {
		in = &all
	}
	p.ends, p.words = append(p.ends[:0], 0), p.words[:0]
	for off := 0; off+alphabet.W <= len(q); off++ {
		p.words = e.AppendIn(p.words, alphabet.WordAt(q, off), in)
		p.ends = append(p.ends, int32(len(p.words)))
	}
}

// Offsets returns the number of query offsets the plan covers.
func (p *Plan) Offsets() int { return len(p.ends) - 1 }

// At returns the words of query offset off, ascending. It is a view;
// callers must not modify it.
func (p *Plan) At(off int) []alphabet.Word { return p.words[p.ends[off]:p.ends[off+1]] }

// Words returns every word of the plan, offset after offset. It is a view;
// callers must not modify it.
func (p *Plan) Words() []alphabet.Word { return p.words }

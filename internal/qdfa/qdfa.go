// Package qdfa implements the deterministic-finite-automaton form of the
// query index introduced by FSA-BLAST and discussed in the paper's related
// work (Section VI): instead of extracting a word at every subject position
// and probing a lookup table, the subject sequence is streamed through a
// DFA whose states encode the last W-1 residues; each transition lands on a
// state that directly carries the query positions of the corresponding
// word. The DFA visits one transition per subject residue, making hit
// detection branch-free and cache-conscious for query-indexed search.
//
// The output is exactly the qindex output: for each subject offset, the
// query positions whose word is a neighbor of the subject word at that
// offset. Tests verify equivalence against qindex.
package qdfa

import (
	"repro/internal/alphabet"
	"repro/internal/neighbor"
)

// DFA is a query automaton. States are the alphabet.Size^(W-1) possible
// (W-1)-residue suffixes; consuming residue c from state s moves to state
// (s*Size + c) mod Size^(W-1) and emits the positions of the word formed by
// the previous W-1 residues followed by c.
type DFA struct {
	QueryLen int
	// CSR positions per word, as in qindex but addressed by the transition
	// (state, residue) which *is* the word index.
	offsets []int32
	flat    []int32
}

const numStates = alphabet.Size * alphabet.Size // W-1 = 2 residues of context

// Build constructs the automaton for a query, expanding neighbor positions
// exactly like qindex.Build.
func Build(query []alphabet.Code, nbr *neighbor.Enumerator) *DFA {
	d := &DFA{QueryLen: len(query), offsets: make([]int32, alphabet.NumWords+1)}
	var plan neighbor.Plan
	plan.Fill(nbr, query, nil)
	counts := make([]int32, alphabet.NumWords)
	for _, v := range plan.Words() {
		counts[v]++
	}
	sum := int32(0)
	for w := 0; w < alphabet.NumWords; w++ {
		d.offsets[w] = sum
		sum += counts[w]
	}
	d.offsets[alphabet.NumWords] = sum
	d.flat = make([]int32, sum)
	next := make([]int32, alphabet.NumWords)
	copy(next, d.offsets[:alphabet.NumWords])
	for off := 0; off < plan.Offsets(); off++ {
		for _, v := range plan.At(off) {
			d.flat[next[v]] = int32(off)
			next[v]++
		}
	}
	return d
}

// Scan streams the subject through the automaton, calling emit for every
// hit: emit(sOff, qOff) where sOff is the subject offset of the word start
// and qOff a matching query offset. Hits for one subject offset are emitted
// in ascending query offset order, and subject offsets ascend — the same
// order qindex-based scanning produces.
func (d *DFA) Scan(subject []alphabet.Code, emit func(sOff int, qOff int32)) {
	if len(subject) < alphabet.W {
		return
	}
	// Seed the state with the first W-1 residues.
	state := int32(subject[0])*alphabet.Size + int32(subject[1])
	for i := alphabet.W - 1; i < len(subject); i++ {
		// Transition on subject[i]: the word index is state*Size + c.
		word := state*alphabet.Size + int32(subject[i])
		lo, hi := d.offsets[word], d.offsets[word+1]
		for k := lo; k < hi; k++ {
			emit(i-(alphabet.W-1), d.flat[k])
		}
		state = word % numStates
	}
}

// TotalPositions returns the number of (word, position) entries.
func (d *DFA) TotalPositions() int { return len(d.flat) }

// SizeBytes estimates the automaton's memory footprint. The transition
// function is implicit (arithmetic on the state), so the DFA stores only
// the per-word offsets and positions — the compactness FSA-BLAST reports.
func (d *DFA) SizeBytes() int64 {
	return int64(len(d.flat))*4 + int64(len(d.offsets))*4
}

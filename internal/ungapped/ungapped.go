// Package ungapped implements BLAST's two-hit ungapped extension stage
// (Section II-A): given two word hits close together on the same diagonal,
// extend outward from the second hit in both directions without gaps,
// stopping when the running score drops more than XDrop below the best seen.
//
// The same Extend kernel and the same two-hit semantics (Canon) are used by
// every pipeline in this repository — query-indexed, db-indexed interleaved,
// and muBLASTP — which is what makes the Section V-E verification (identical
// outputs at every stage) hold by construction.
package ungapped

import (
	"repro/internal/alphabet"
	"repro/internal/matrix"
)

// Params controls hit-pair selection and extension.
type Params struct {
	// Window is the two-hit window A: two non-overlapping hits on one
	// diagonal trigger extension only if their distance is below this
	// (BLASTP default 40); it must exceed alphabet.W for any pair to exist.
	Window int
	// XDrop stops extension when the running score falls this far below
	// the best score seen (raw score units; BLASTP default ~16 raw for
	// the 7-bit ungapped X-drop under BLOSUM62).
	XDrop int
	// Trigger is the least raw score an ungapped alignment needs to be kept
	// and handed to the gapped stage (Algorithm 1's thresholdT; NCBI's
	// gap trigger S1). search.NewConfig derives it from the matrix:
	// GapTriggerBits, 41 raw on BLOSUM62.
	Trigger int
}

// The BLASTP defaults of this stage: the two-hit window A, the X-drop X1
// (7 bits, 16 raw on BLOSUM62), and NCBI's gap trigger S1 in bits
// (BLAST_GAP_TRIGGER_PROT), which search.NewConfig turns into Params.Trigger
// through the matrix's ungapped statistics: 41 raw on BLOSUM62.
const (
	DefaultWindow  = 40
	DefaultXDrop   = 16
	GapTriggerBits = 22
)

// Ext is one ungapped alignment (half-open coordinates).
type Ext struct {
	Score  int
	QStart int
	QEnd   int
	SStart int
	SEnd   int
}

// Extend runs the two-directional ungapped extension seeded at the word hit
// (qOff, sOff): the W seed residues always belong to the alignment, the left
// extension walks from qOff-1 toward the sequence starts, and the right
// extension from qOff+W toward the ends, each keeping its best prefix under
// the X-drop rule.
func Extend(m *matrix.Matrix, q, s []alphabet.Code, qOff, sOff, xDrop int) Ext {
	// Seed word score.
	word := 0
	for k := 0; k < alphabet.W; k++ {
		word += m.Score(q[qOff+k], s[sOff+k])
	}
	// Left extension.
	leftBest, cum := 0, 0
	qStart := qOff
	for i, j := qOff-1, sOff-1; i >= 0 && j >= 0; i, j = i-1, j-1 {
		cum += m.Score(q[i], s[j])
		if cum > leftBest {
			leftBest = cum
			qStart = i
		} else if cum <= leftBest-xDrop {
			break
		}
	}
	// Right extension.
	rightBest, cum := 0, 0
	qEnd := qOff + alphabet.W
	for i, j := qOff+alphabet.W, sOff+alphabet.W; i < len(q) && j < len(s); i, j = i+1, j+1 {
		cum += m.Score(q[i], s[j])
		if cum > rightBest {
			rightBest = cum
			qEnd = i + 1
		} else if cum <= rightBest-xDrop {
			break
		}
	}
	return Ext{
		Score:  leftBest + word + rightBest,
		QStart: qStart,
		QEnd:   qEnd,
		SStart: qStart - qOff + sOff,
		SEnd:   qEnd - qOff + sOff,
	}
}

// ExtendProfile is Extend rewritten around a query profile (flattened PSSM,
// see matrix.Profile): scoring a cell is one slice index off the subject
// residue, the query is never reloaded inside the loops, and the X-drop test
// runs without the reference kernel's else-branch. It returns exactly the
// Ext that Extend(m, q, s, qOff, sOff, xDrop) returns for the matrix the
// profile was built from, for any xDrop >= 1 and query length < 0xFFFF (the
// branch restructuring — best score and best position packed into one
// max-updated word, drop test against its high bits — needs a strictly
// positive drop margin and a position that fits 16 bits; Canon falls back to
// Extend otherwise, and the equivalence property tests pin both paths).
func ExtendProfile(p *matrix.Profile, s []alphabet.Code, qOff, sOff, xDrop int) Ext {
	rows := p.Scores
	qLen := p.QLen

	// Seed word score: rows qOff..qOff+W-1 against the seed subject residues.
	base := qOff * alphabet.Size
	word := int(rows[base+int(s[sOff])]) +
		int(rows[base+alphabet.Size+int(s[sOff+1])]) +
		int(rows[base+2*alphabet.Size+int(s[sOff+2])])

	// Left extension: walk k = 1..n with q[qOff-k] vs s[sOff-k], iterated as
	// i = n-1..0 over the subject window sl (sl[i] == s[sOff-n+i], k == n-i)
	// so the slice access is provably in bounds; only the profile access
	// keeps its check.
	n := qOff
	if sOff < n {
		n = sOff
	}
	sl := s[sOff-n : sOff]
	base = (qOff - 1) * alphabet.Size
	// The running best is one packed word, max-updated every step: score in
	// the high bits, i+1 in the low 16 so that score ties resolve to the
	// earliest position — exactly the reference's strict-greater update. The
	// single max compiles to a conditional move, leaving the X-drop exit as
	// the loop's only branch; on real hit streams the best-update branch is
	// unpredictable and this is the difference between ~135ns and ~95ns per
	// extension. Requires positions < 0xFFFF and |score| < 2^47; Canon.extend
	// guards the query length.
	bestPacked := int64(0xFFFF)
	cum := 0
	for i := len(sl) - 1; i >= 0; i-- {
		cum += int(rows[base+int(sl[i])])
		base -= alphabet.Size
		packed := int64(cum)<<16 + int64(i+1)
		if packed > bestPacked {
			bestPacked = packed
		}
		if cum <= int(bestPacked>>16)-xDrop {
			break
		}
	}
	leftBest := int(bestPacked >> 16)
	leftK := 0
	if low := int(bestPacked & 0xFFFF); low != 0xFFFF {
		leftK = n + 1 - low
	}

	// Right extension: q[qOff+W+k] vs s[sOff+W+k] for k = 0..n-1.
	n = qLen - qOff - alphabet.W
	if m := len(s) - sOff - alphabet.W; m < n {
		n = m
	}
	sr := s[sOff+alphabet.W : sOff+alphabet.W+n]
	base = (qOff + alphabet.W) * alphabet.Size
	bestPacked = int64(0xFFFF)
	cum = 0
	for k, c := range sr {
		cum += int(rows[base+int(c)])
		base += alphabet.Size
		packed := int64(cum)<<16 + int64(n-k) // decreasing in k: ties keep the earlier k
		if packed > bestPacked {
			bestPacked = packed
		}
		if cum <= int(bestPacked>>16)-xDrop {
			break
		}
	}
	rightBest := int(bestPacked >> 16)
	rightK := 0
	if low := int(bestPacked & 0xFFFF); low != 0xFFFF {
		rightK = n + 1 - low
	}

	qStart := qOff - leftK
	qEnd := qOff + alphabet.W + rightK
	return Ext{
		Score:  leftBest + word + rightBest,
		QStart: qStart,
		QEnd:   qEnd,
		SStart: qStart - qOff + sOff,
		SEnd:   qEnd - qOff + sOff,
	}
}

// ExtendScore is the score-only form of ExtendProfile: the same seed word
// and the same two X-drop walks, returning exactly
// ExtendProfile(p, s, qOff, sOff, xDrop).Score under the same preconditions
// (xDrop >= 1) and nothing else. The decoupled pipeline throws away 99.9% of
// its ungapped extensions on the score alone (Score < Trigger), and a
// rejected pair needs no coordinates: ExtReached falls back to the hit's own
// offset. Dropping the position lets the best be a plain max instead of a
// packed score+position word, and each direction is a walker small enough
// that its whole loop state stays in registers.
func ExtendScore(p *matrix.Profile, s []alphabet.Code, qOff, sOff, xDrop int) int {
	rows := p.Scores
	base := qOff * alphabet.Size
	word := int(rows[base+int(s[sOff])]) +
		int(rows[base+alphabet.Size+int(s[sOff+1])]) +
		int(rows[base+2*alphabet.Size+int(s[sOff+2])])

	n := qOff
	if sOff < n {
		n = sOff
	}
	left := walkLeft(rows, base-alphabet.Size, s[sOff-n:sOff], xDrop)

	n = p.QLen - qOff - alphabet.W
	if m := len(s) - sOff - alphabet.W; m < n {
		n = m
	}
	right := walkRight(rows, base+alphabet.W*alphabet.Size, s[sOff+alphabet.W:sOff+alphabet.W+n], xDrop)
	return left + word + right
}

// walkLeft is ExtendProfile's left loop without the position: sl is the
// subject window ending at the seed, base the profile row of the query
// residue facing sl's last element, and each step moves one residue and one
// row toward the sequence starts. With xDrop >= 1 "best = max(best, cum);
// stop when cum <= best-xDrop" takes the reference's decisions cell for cell
// (a cell that raises the best cannot also trip the drop test).
//
// The walkers are kept out of line on purpose: inlined into ExtendScore the
// register allocator spills cum and best to the stack inside this loop — the
// store-to-load forward on the loop-carried chain that the packed kernel pays
// too — while as a function of its own the loop's five live values (cum,
// best, base, index, xDrop) all stay in registers. Two calls per extension
// are cheaper than one spill per cell.
//
//go:noinline
func walkLeft(rows []int8, base int, sl []alphabet.Code, xDrop int) int {
	cum, best := 0, 0
	for i := len(sl) - 1; i >= 0; i-- {
		cum += int(rows[base+int(sl[i])])
		base -= alphabet.Size
		best = max(best, cum)
		if cum <= best-xDrop {
			break
		}
	}
	return best
}

// walkRight is the mirror of walkLeft: sr starts just past the seed word and
// base is the profile row of the query residue facing sr[0].
//
//go:noinline
func walkRight(rows []int8, base int, sr []alphabet.Code, xDrop int) int {
	cum, best := 0, 0
	for _, c := range sr {
		cum += int(rows[base+int(c)])
		base += alphabet.Size
		best = max(best, cum)
		if cum <= best-xDrop {
			break
		}
	}
	return best
}

// Canon is the canonical per-diagonal two-hit state machine. Every pipeline
// feeds it the hits of one (subject sequence, diagonal) in increasing query
// offset and gets back the identical sequence of extensions, whether the
// pipeline interleaves stages (NCBI, NCBI-db) or batches them (muBLASTP).
//
// Semantics (Algorithm 1 lines 5–25):
//
//   - a hit pairs with the hit stored for the diagonal when their distance is
//     in [alphabet.W, Window); a hit overlapping the stored one (distance <
//     alphabet.W) is ignored and the stored hit kept — NCBI's rule, see
//     PairCheck;
//   - a pair whose second hit is already covered by the previous extension
//     on the diagonal (extReached > qOff) is skipped;
//   - after an extension scoring at least Trigger, the diagonal's reached
//     position advances to the extension end; otherwise to the hit offset.
type Canon struct {
	P      Params
	Matrix *matrix.Matrix
	// Prof, when non-nil, must be the query profile of the q every Extend*
	// call receives; extensions then run the profile kernel (ExtendProfile)
	// instead of the matrix-indexed reference. Output is identical either
	// way — the fast path is an implementation choice, not a semantic one.
	Prof *matrix.Profile
}

// extend dispatches one ungapped extension to the profile kernel when a
// profile is attached and the parameters permit the packed branchless form
// (strictly positive X-drop margin, query offset fits 16 bits), falling
// back to the reference kernel otherwise.
func (c *Canon) extend(q, s []alphabet.Code, qOff, sOff int) Ext {
	if c.Prof != nil && c.P.XDrop >= 1 && c.Prof.QLen < 0xFFFF {
		return ExtendProfile(c.Prof, s, qOff, sOff, c.P.XDrop)
	}
	return Extend(c.Matrix, q, s, qOff, sOff, c.P.XDrop)
}

// DiagState is the per-diagonal state: the last hit offset seen (for
// pairing) and the furthest query position reached by an extension.
type DiagState struct {
	LastPos    int32 // query offset of the previous hit; -1 if none
	ExtReached int32 // query offset up to which extensions have covered; -1 if none
}

// Reset prepares the state for a new diagonal.
func (d *DiagState) Reset() { d.LastPos, d.ExtReached = -1, -1 }

// PairCheck processes one hit's two-hit test on the diagonal — NCBI's
// non-overlapping rule (s_BlastAaWordFinder_TwoHit), stated here once as
// semantics; search.StampedLastPos* are its packed forms. With d the distance
// from the diagonal's stored hit to this one (hits arrive in increasing
// offset):
//
//   - no stored hit: store this one, no pair;
//   - d < alphabet.W: the hit overlaps the stored one and is ignored — the
//     stored hit is kept, so consecutive words of one conserved stretch pair
//     every W-th word, not every word;
//   - alphabet.W <= d < Window: pair, and store this hit;
//   - d >= Window: store this hit, no pair.
//
// This is exactly what the muBLASTP pre-filter computes during hit detection
// (Algorithm 2).
func (c *Canon) PairCheck(d *DiagState, qOff int) bool {
	dist := int32(qOff) - d.LastPos
	if d.LastPos >= 0 && dist < alphabet.W {
		return false
	}
	paired := d.LastPos >= 0 && int(dist) < c.P.Window
	d.LastPos = int32(qOff)
	return paired
}

// ExtendPair processes one *paired* hit in the extension stage: skipped if
// covered by the previous extension on the diagonal, otherwise extended.
// keep reports whether the extension met the Trigger score. This is
// Algorithm 1 lines 15–25, shared verbatim between the interleaved and
// decoupled pipelines.
func (c *Canon) ExtendPair(d *DiagState, q, s []alphabet.Code, qOff, sOff int) (ext Ext, extended, keep bool) {
	if d.ExtReached > int32(qOff) {
		return Ext{}, false, false // covered by a previous extension
	}
	ext = c.extend(q, s, qOff, sOff)
	if ext.Score >= c.P.Trigger {
		d.ExtReached = int32(ext.QEnd)
		return ext, true, true
	}
	d.ExtReached = int32(qOff)
	return ext, true, false
}

// Step processes one hit at query offset qOff / subject offset sOff on the
// diagonal with state d, running the pair check and (when it passes) the
// extension-stage logic — the interleaved execution of the NCBI pipelines.
// paired reports the two-hit test outcome, extended whether an extension
// ran, keep whether it met the Trigger score.
func (c *Canon) Step(d *DiagState, q, s []alphabet.Code, qOff, sOff int) (ext Ext, paired, extended, keep bool) {
	if !c.PairCheck(d, qOff) {
		return Ext{}, false, false, false
	}
	ext, extended, keep = c.ExtendPair(d, q, s, qOff, sOff)
	return ext, true, extended, keep
}

// Package ungapped implements BLAST's two-hit ungapped extension stage
// (Section II-A): given two word hits close together on the same diagonal,
// extend from the second hit without gaps, stopping a walk when its running
// score drops more than XDrop below the best seen. As in NCBI BLASTP
// (s_BlastAaExtendTwoHit), the walk runs left first and continues right only
// if the left walk's best reaches back to the first hit's word; otherwise
// the alignment is the seed word plus its left half.
//
// The same kernels and the same two-hit semantics (Canon) are used by every
// pipeline in this repository — query-indexed, db-indexed interleaved, and
// muBLASTP — which is what makes the Section V-E verification (identical
// outputs at every stage) hold by construction. Every kernel scores through
// a query profile (matrix.Profile), for every query length up to MaxQueryLen;
// the matrix-indexed walk they are pinned against lives in the tests only.
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
	// the 7-bit ungapped X-drop under BLOSUM62). It must be at least 1: the
	// kernels' branchless drop test needs a strictly positive margin.
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

// posBits is the width of the position ExtendProfile packs under the running
// best score, and noPos, the all-ones field, the sentinel that no position
// reaches. A walk's positions run 1..len(q)-W, so every query up to
// MaxQueryLen fits; scores stay far below the 2^42 the rest of an int64
// leaves them.
const (
	posBits = 21
	noPos   = 1<<posBits - 1
)

// MaxQueryLen is the longest query the ungapped kernels address: every
// position a walk packs stays below the sentinel noPos. internal/search ties
// its last-hit limit to it at compile time.
const MaxQueryLen = noPos - 1 + alphabet.W

// ExtendProfile runs the two-hit ungapped extension seeded at the second
// hit's word (qOff, sOff) over a query profile (flattened PSSM, see
// matrix.Profile): the W seed residues always belong to the alignment, the
// left extension walks from qOff-1 toward the sequence starts keeping its
// best prefix under the X-drop rule, and the right extension from qOff+W
// toward the ends runs only if that best prefix is at least need residues
// long — when it reaches the end of the first hit's word, need = dist - W
// for a first hit dist offsets before the second (NCBI's rule). reach
// reports whether it did; without it the alignment ends with the seed word.
// need <= 0 always reaches.
//
// Scoring a cell is one slice index off the subject residue, the query is
// never reloaded inside the loops, and the X-drop test runs without an
// else-branch: best score and best position are packed into one max-updated
// word and the drop test reads its high bits, which needs xDrop >= 1 and a
// query of at most MaxQueryLen residues. The tests pin it cell for cell to
// the matrix-indexed walk it was rewritten from.
func ExtendProfile(p *matrix.Profile, s []alphabet.Code, qOff, sOff, xDrop, need int) (ext Ext, reach bool) {
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
	// the high bits, i+1 in the low posBits so that score ties resolve to the
	// earliest position — exactly the matrix-indexed walk's strict-greater
	// update. The single max compiles to a conditional move, leaving the
	// X-drop exit as the loop's only branch; on real hit streams the
	// best-update branch is unpredictable and this is the difference between
	// ~135ns and ~95ns per extension.
	//
	// nearPacked is the best over the cells short of need (k < need, i.e.
	// i > far), copied by another conditional move: the best prefix is at
	// least need long exactly when a later cell raised the best past it.
	bestPacked := int64(noPos)
	nearPacked := bestPacked
	far := n - need
	cum := 0
	for i := len(sl) - 1; i >= 0; i-- {
		cum += int(rows[base+int(sl[i])])
		base -= alphabet.Size
		packed := int64(cum)<<posBits + int64(i+1)
		if packed > bestPacked {
			bestPacked = packed
		}
		if i > far {
			nearPacked = bestPacked
		}
		if cum <= int(bestPacked>>posBits)-xDrop {
			break
		}
	}
	reach = need <= 0 || bestPacked > nearPacked
	leftBest := int(bestPacked >> posBits)
	leftK := 0
	if low := int(bestPacked & noPos); low != noPos {
		leftK = n + 1 - low
	}

	// Right extension: q[qOff+W+k] vs s[sOff+W+k] for k = 0..n-1, with n = 0
	// unless the left walk reached.
	n = 0
	if reach {
		n = qLen - qOff - alphabet.W
		if m := len(s) - sOff - alphabet.W; m < n {
			n = m
		}
	}
	sr := s[sOff+alphabet.W : sOff+alphabet.W+n]
	base = (qOff + alphabet.W) * alphabet.Size
	bestPacked = int64(noPos)
	cum = 0
	for k, c := range sr {
		cum += int(rows[base+int(c)])
		base += alphabet.Size
		packed := int64(cum)<<posBits + int64(n-k) // decreasing in k: ties keep the earlier k
		if packed > bestPacked {
			bestPacked = packed
		}
		if cum <= int(bestPacked>>posBits)-xDrop {
			break
		}
	}
	rightBest := int(bestPacked >> posBits)
	rightK := 0
	if low := int(bestPacked & noPos); low != noPos {
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
	}, reach
}

// ExtendScore is the score-only form of ExtendProfile: the same seed word,
// the same two X-drop walks and the same reach, returning exactly
// ExtendProfile(p, s, qOff, sOff, xDrop, need)'s score and reach under the
// same preconditions (xDrop >= 1) and nothing else. The decoupled pipeline
// throws away 99.9% of its ungapped extensions on the score alone (Score <
// Trigger), and a rejected pair needs no coordinates: ExtReached falls back
// to the hit's own offset. Dropping the position lets the best be a plain
// max instead of a packed score+position word, and each direction is a
// walker small enough that its whole loop state stays in registers.
func ExtendScore(p *matrix.Profile, s []alphabet.Code, qOff, sOff, xDrop, need int) (score int, reach bool) {
	rows := p.Scores
	base := qOff * alphabet.Size
	word := int(rows[base+int(s[sOff])]) +
		int(rows[base+alphabet.Size+int(s[sOff+1])]) +
		int(rows[base+2*alphabet.Size+int(s[sOff+2])])

	n := qOff
	if sOff < n {
		n = sOff
	}
	left, near := walkLeft(rows, base-alphabet.Size, s[sOff-n:sOff], xDrop, n-need)
	if need > 0 && left == near { // the best prefix is short of the need
		return left + word, false
	}

	n = p.QLen - qOff - alphabet.W
	if m := len(s) - sOff - alphabet.W; m < n {
		n = m
	}
	right := walkRight(rows, base+alphabet.W*alphabet.Size, s[sOff+alphabet.W:sOff+alphabet.W+n], xDrop)
	return left + word + right, true
}

// walkLeft is ExtendProfile's left loop without the position: sl is the
// subject window ending at the seed, base the profile row of the query
// residue facing sl's last element, and each step moves one residue and one
// row toward the sequence starts. With xDrop >= 1 "best = max(best, cum);
// stop when cum <= best-xDrop" takes the matrix-indexed walk's decisions
// cell for cell (a cell that raises the best cannot also trip the drop test).
// near is the best over the cells at i > far, those short of the need: the
// best prefix reaches the need exactly when best > near.
//
// The walkers are kept out of line on purpose: inlined into ExtendScore the
// register allocator spills cum and best to the stack inside this loop — the
// store-to-load forward on the loop-carried chain that the packed kernel pays
// too — while as a function of its own the loop's live values (cum, best,
// near, base, index, far, xDrop) all stay in registers. Two calls per
// extension are cheaper than one spill per cell.
//
//go:noinline
func walkLeft(rows []int8, base int, sl []alphabet.Code, xDrop, far int) (best, near int) {
	cum := 0
	for i := len(sl) - 1; i >= 0; i-- {
		cum += int(rows[base+int(sl[i])])
		base -= alphabet.Size
		best = max(best, cum)
		if i > far {
			near = best
		}
		if cum <= best-xDrop {
			break
		}
	}
	return best, near
}

// walkRight is the mirror of walkLeft without the need: sr starts just past
// the seed word and base is the profile row of the query residue facing
// sr[0].
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
// Semantics (Algorithm 1 lines 5–25, with NCBI's extension rule):
//
//   - a hit pairs with the hit stored for the diagonal when their distance
//     dist is in [alphabet.W, Window); a hit overlapping the stored one
//     (distance < alphabet.W) is ignored and the stored hit kept — NCBI's
//     rule, see PairCheck;
//   - a pair whose second hit is already covered by the previous extension
//     on the diagonal (extReached > qOff) is skipped;
//   - otherwise the pair is extended from the second hit: left first, and
//     right only if the left walk's best reaches the end of the first hit's
//     word (need = dist - W residues left of the seed, see ExtendProfile);
//   - after an extension that reached and scored at least Trigger, the
//     diagonal's reached position advances to the extension end; otherwise
//     to the hit offset — NCBI flags no diagonal it did not extend right.
type Canon struct {
	P Params
	// Prof is the profile of the query whose hits the state machine is fed;
	// every extension runs ExtendProfile over it. Only PairCheck runs
	// without one.
	Prof *matrix.Profile
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
// semantics; search.CheckStamp is its packed form. With d the distance
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

// ExtendPair processes one *paired* hit in the extension stage, the second
// hit of a pair whose first hit lies dist offsets before it: skipped if
// covered by the previous extension on the diagonal, otherwise extended.
// keep reports whether the extension met the Trigger score. This is
// Algorithm 1 lines 15–25 with NCBI's extension rule, shared verbatim between
// the interleaved and decoupled pipelines.
func (c *Canon) ExtendPair(d *DiagState, s []alphabet.Code, qOff, sOff, dist int) (ext Ext, extended, keep bool) {
	if d.ExtReached > int32(qOff) {
		return Ext{}, false, false // covered by a previous extension
	}
	ext, reach := ExtendProfile(c.Prof, s, qOff, sOff, c.P.XDrop, dist-alphabet.W)
	d.ExtReached = int32(qOff)
	if ext.Score < c.P.Trigger {
		return ext, true, false
	}
	if reach {
		d.ExtReached = int32(ext.QEnd)
	}
	return ext, true, true
}

// Step processes one hit at query offset qOff / subject offset sOff on the
// diagonal with state d, running the pair check and (when it passes) the
// extension-stage logic — the interleaved execution of the NCBI pipelines.
// paired reports the two-hit test outcome, extended whether an extension
// ran, keep whether it met the Trigger score.
func (c *Canon) Step(d *DiagState, s []alphabet.Code, qOff, sOff int) (ext Ext, paired, extended, keep bool) {
	dist := qOff - int(d.LastPos) // to the stored hit, before PairCheck replaces it
	if !c.PairCheck(d, qOff) {
		return Ext{}, false, false, false
	}
	ext, extended, keep = c.ExtendPair(d, s, qOff, sOff, dist)
	return ext, true, extended, keep
}

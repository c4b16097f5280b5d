// Package gapped implements BLAST's gapped extension and traceback stages
// (Section II-A, stages three and four): starting from a seed point inside a
// high-scoring ungapped alignment, a dynamic program with affine gap
// penalties extends in both directions, pruning cells whose score falls more
// than XDrop below the running best (the adaptive-band X-drop algorithm of
// Zhang et al. used by NCBI-BLAST).
//
// There is one DP kernel, extendHalfProf (kernel.go), driven by a query
// profile, and two uses of it. ExtendScoreProf is stage three: score and span
// only, one row updated in place. TracebackProf is stage four, run on the few
// alignments a search reports: the same kernel with every row kept, stopped
// at the endpoint the score pass already found — the rows below it are the
// X-drop tail the score pass walked to prove that endpoint final — and a walk
// back over the kept rows (traceback.go). The matrix-indexed kernels the
// package started with are the test oracles (reference_test.go).
//
// These stages are not the paper's bottleneck (Section II-A applies prior
// optimizations to them), but a complete pipeline needs them: the gapped
// score determines the final E-value ranking that searches report.
package gapped

import (
	"fmt"
	"math"

	"repro/internal/alphabet"
	"repro/internal/matrix"
)

// EditOp is one traceback operation.
type EditOp byte

const (
	// OpMatch consumes one query and one subject residue (match or mismatch).
	OpMatch EditOp = 'M'
	// OpIns consumes one subject residue (gap in the query).
	OpIns EditOp = 'I'
	// OpDel consumes one query residue (gap in the subject).
	OpDel EditOp = 'D'
)

// Alignment is a gapped local alignment with traceback.
type Alignment struct {
	Score  int
	QStart int
	QEnd   int
	SStart int
	SEnd   int
	Ops    []EditOp // operations from (QStart,SStart) to (QEnd,SEnd)
}

// Validate walks the traceback and checks that the operations span exactly
// [QStart,QEnd) x [SStart,SEnd) and reproduce Score under the given scoring
// system. Used heavily in tests; cheap enough for debug assertions.
func (a *Alignment) Validate(m *matrix.Matrix, q, s []alphabet.Code, p Params) error {
	qi, sj := a.QStart, a.SStart
	score := 0
	var prev EditOp
	for _, op := range a.Ops {
		switch op {
		case OpMatch:
			if qi >= len(q) || sj >= len(s) {
				return fmt.Errorf("gapped: match op out of bounds at (%d,%d)", qi, sj)
			}
			score += m.Score(q[qi], s[sj])
			qi, sj = qi+1, sj+1
		case OpIns:
			if sj >= len(s) {
				return fmt.Errorf("gapped: ins op out of bounds at (%d,%d)", qi, sj)
			}
			if prev == OpIns {
				score -= p.GapExtend
			} else {
				score -= p.GapOpen + p.GapExtend
			}
			sj++
		case OpDel:
			if qi >= len(q) {
				return fmt.Errorf("gapped: del op out of bounds at (%d,%d)", qi, sj)
			}
			if prev == OpDel {
				score -= p.GapExtend
			} else {
				score -= p.GapOpen + p.GapExtend
			}
			qi++
		default:
			return fmt.Errorf("gapped: unknown op %q", op)
		}
		prev = op
	}
	if qi != a.QEnd || sj != a.SEnd {
		return fmt.Errorf("gapped: ops end at (%d,%d), want (%d,%d)", qi, sj, a.QEnd, a.SEnd)
	}
	if score != a.Score {
		return fmt.Errorf("gapped: ops score %d, reported %d", score, a.Score)
	}
	return nil
}

// Params are the affine gap penalties and the X-drop bound. A gap of length
// k costs GapOpen + k*GapExtend.
type Params struct {
	GapOpen   int
	GapExtend int
	XDrop     int
	// MaxCells bounds the DP work per extension half as a safety valve for
	// pathological inputs; 0 means the default (16M cells).
	MaxCells int
}

// DefaultParams returns the BLASTP defaults: gap open 11, extend 1, and a
// 38-raw-score X-drop (the 15-bit gapped X-drop under BLOSUM62).
func DefaultParams() Params { return Params{GapOpen: 11, GapExtend: 1, XDrop: 38} }

const negInf = math.MinInt32 / 4

// Aligner runs gapped extensions. It is not safe for concurrent use; create
// one per worker and reuse it to amortize buffer allocations.
type Aligner struct {
	M *matrix.Matrix
	P Params
	// reusable reversed subject prefix for the backward half
	srev []alphabet.Code
	// row is the one DP row, a cell per subject column, updated in place
	// (stage three runs thousands of extensions per query; keeping its
	// capacity makes it allocation-free at steady state). A traceback run
	// also keeps a copy of every row: kept[i] is row i, its cells carved
	// from slab one row after the other, so the rows of one run cost the
	// cells they hold and nothing is allocated once the slab has grown to
	// the largest run.
	row  []cell
	kept []keptRow
	slab []cell
	// ops collects a traceback's operations before they are copied out.
	ops []EditOp
}

// NewAligner creates an aligner with the given scoring system. The DP kernel
// takes E off the pruned-H chain, which needs GapOpen, GapExtend >= 0 (see
// extendHalfProf); negative gap costs are a programming error and panic.
func NewAligner(m *matrix.Matrix, p Params) *Aligner {
	if p.GapOpen < 0 || p.GapExtend < 0 {
		panic(fmt.Sprintf("gapped: negative gap costs open=%d extend=%d", p.GapOpen, p.GapExtend))
	}
	if p.MaxCells <= 0 {
		p.MaxCells = 1 << 24
	}
	return &Aligner{M: m, P: p}
}

func reverseInto(dst, src []alphabet.Code) []alphabet.Code {
	for i := len(src) - 1; i >= 0; i-- {
		dst = append(dst, src[i])
	}
	return dst
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

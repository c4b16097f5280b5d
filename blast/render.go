package blast

import (
	"fmt"
	"strings"

	"repro/internal/alphabet"
)

// FormatHit renders a hit as a classic BLAST-style pairwise alignment block:
// header line, then wrapped Query/midline/Sbjct triplets with 1-based
// coordinates.
func (d *Database) FormatHit(query string, h *Hit) string {
	const width = 60
	var qb, mb, sb strings.Builder
	q := query
	s := d.SubjectResidues(h.Subject)
	qi, sj := h.QueryStart, h.SubjectStart
	for _, op := range h.Ops {
		switch op {
		case 'M':
			qc, sc := q[qi], s[sj]
			qb.WriteByte(qc)
			sb.WriteByte(sc)
			switch {
			case qc == sc:
				mb.WriteByte(qc)
			case d.similar(qc, sc):
				mb.WriteByte('+')
			default:
				mb.WriteByte(' ')
			}
			qi, sj = qi+1, sj+1
		case 'I':
			qb.WriteByte('-')
			mb.WriteByte(' ')
			sb.WriteByte(s[sj])
			sj++
		case 'D':
			qb.WriteByte(q[qi])
			mb.WriteByte(' ')
			sb.WriteByte('-')
			qi++
		}
	}
	qs, ms, ss := qb.String(), mb.String(), sb.String()

	var out strings.Builder
	fmt.Fprintf(&out, "> %s\n", h.SubjectName)
	fmt.Fprintf(&out, "  Score = %.1f bits (%d), Expect = %.2g, Identities = %.0f%%\n\n",
		h.BitScore, h.Score, h.EValue, 100*h.Identity)
	qPos, sPos := h.QueryStart, h.SubjectStart
	for off := 0; off < len(qs); off += width {
		end := off + width
		if end > len(qs) {
			end = len(qs)
		}
		qChunk, mChunk, sChunk := qs[off:end], ms[off:end], ss[off:end]
		qAdv := len(qChunk) - strings.Count(qChunk, "-")
		sAdv := len(sChunk) - strings.Count(sChunk, "-")
		fmt.Fprintf(&out, "Query  %-5d %s  %d\n", qPos+1, qChunk, qPos+qAdv)
		fmt.Fprintf(&out, "             %s\n", mChunk)
		fmt.Fprintf(&out, "Sbjct  %-5d %s  %d\n\n", sPos+1, sChunk, sPos+sAdv)
		qPos += qAdv
		sPos += sAdv
	}
	return out.String()
}

// similar reports whether two residues score positively under the
// database's matrix — the convention behind the '+' midline character.
func (d *Database) similar(a, b byte) bool {
	ca, okA := alphabet.CodeFor(a)
	cb, okB := alphabet.CodeFor(b)
	return okA && okB && d.cfg.Matrix.Score(ca, cb) > 0
}

// Summary renders a one-line-per-hit table, mirroring BLAST's hit list.
func (r *Result) Summary() string {
	var out strings.Builder
	fmt.Fprintf(&out, "%-30s %9s %10s %8s %9s\n", "Subject", "Score", "Bits", "E-value", "Identity")
	for _, h := range r.Hits {
		name := h.SubjectName
		if len(name) > 30 {
			name = name[:27] + "..."
		}
		fmt.Fprintf(&out, "%-30s %9d %10.1f %8.1e %8.0f%%\n",
			name, h.Score, h.BitScore, h.EValue, 100*h.Identity)
	}
	return out.String()
}

// Tabular renders hits in BLAST's 12-column tabular format (-outfmt 6):
// query, subject, %identity, alignment length, mismatches, gap opens,
// q.start, q.end, s.start, s.end, evalue, bit score. Coordinates are
// 1-based inclusive, as BLAST reports them.
func (r *Result) Tabular(queryName string) string {
	var out strings.Builder
	for i := range r.Hits {
		h := &r.Hits[i]
		alnLen := len(h.Ops)
		matches := 0
		gapOpens := 0
		var prev byte
		for j := 0; j < alnLen; j++ {
			op := h.Ops[j]
			if op == 'M' {
				matches++
			} else if op != prev {
				gapOpens++
			}
			prev = op
		}
		identical := int(h.Identity*float64(alnLen) + 0.5)
		mismatch := matches - identical
		fmt.Fprintf(&out, "%s\t%s\t%.2f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2g\t%.1f\n",
			queryName, h.SubjectName, 100*h.Identity, alnLen, mismatch, gapOpens,
			h.QueryStart+1, h.QueryEnd, h.SubjectStart+1, h.SubjectEnd,
			h.EValue, h.BitScore)
	}
	return out.String()
}

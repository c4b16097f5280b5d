package blast

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/alphabet"
)

// SearchLong searches a query of arbitrary length by splitting it into
// overlapping chunks, searching the chunks as one batch, and merging hits
// back into whole-query coordinates — the "very long queries" extension the
// paper lists as future work (Section VII), handled symmetrically to the
// subject-side splitting of Section IV-A.
//
// chunkLen is the maximum chunk size (0 means 2048); overlap is the overlap
// between adjacent chunks (0 means 256, and it also bounds the alignment
// length that is guaranteed to be found intact). Alignments discovered in
// the overlap by both chunks are deduplicated.
func (d *Database) SearchLong(query string, chunkLen, overlap int) (*Result, error) {
	if chunkLen <= 0 {
		chunkLen = 2048
	}
	if overlap <= 0 {
		overlap = 256
	}
	if overlap >= chunkLen {
		return nil, fmt.Errorf("blast: overlap %d must be below chunk length %d", overlap, chunkLen)
	}
	if len(query) <= chunkLen {
		return d.Search(query)
	}
	q, err := alphabet.Encode([]byte(query))
	if err != nil {
		return nil, fmt.Errorf("blast: query: %w", err)
	}

	// The chunks are searched as one batch, so they share one schedule.
	var offs []int
	var chunks [][]alphabet.Code
	for off := 0; ; off += chunkLen - overlap {
		end := min(off+chunkLen, len(q))
		offs = append(offs, off)
		chunks = append(chunks, q[off:end])
		if end == len(q) {
			break
		}
	}
	raw := d.searchRaw(context.Background(), chunks)

	out := &Result{QueryLen: len(query)}
	type key struct {
		name          string
		score, qs, ss int
	}
	seen := map[key]bool{}
	for i, off := range offs {
		if !raw.completed[i] {
			return nil, fmt.Errorf("blast: chunk at %d: %w", off, raw.queryErrs[i])
		}
		res := convertHSPs(len(chunks[i]), raw.results[i], raw.meta[i])
		out.Stats.Add(res.Stats)
		for _, h := range res.Hits {
			h.QueryStart += off
			h.QueryEnd += off
			k := key{h.SubjectName, h.Score, h.QueryStart, h.SubjectStart}
			if seen[k] {
				continue
			}
			seen[k] = true
			out.Hits = append(out.Hits, h)
		}
	}
	// Re-rank the merged hit list the way a single search would.
	sort.SliceStable(out.Hits, func(i, j int) bool {
		a, b := out.Hits[i], out.Hits[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.SubjectName != b.SubjectName {
			return a.SubjectName < b.SubjectName
		}
		if a.QueryStart != b.QueryStart {
			return a.QueryStart < b.QueryStart
		}
		return a.SubjectStart < b.SubjectStart
	})
	if d.params.MaxResults > 0 && len(out.Hits) > d.params.MaxResults {
		out.Hits = out.Hits[:d.params.MaxResults]
	}
	return out, nil
}

package blast

import (
	"errors"
	"fmt"

	"repro/internal/gapped"
	"repro/internal/search"
)

// This file defines the portable (JSON) form of a ShardResult, so a shard
// search can run in another process — a remote mublastpd serving one shard
// container — and still merge byte-identically at the router. Two facts make
// that possible without shipping the database over the wire:
//
//   - encoding/json round-trips float64 exactly (shortest-representation
//     marshal, exact unmarshal), so bit scores and E-values survive the hop
//     bit for bit;
//   - everything reporting a hit needs from the shard's resident database —
//     the alignment identity fraction and the split-chunk origin — is in the
//     per-HSP side records every raw result carries from search time.
//
// Subject ids stay shard-local on the wire; MergeShards restores monolithic
// ids, re-ranks, re-caps, and deduplicates chunk overlaps across shards.

// WireHSP is one HSP in shard-local form plus the merge side records.
type WireHSP struct {
	Subject     int     `json:"subject"` // shard-local sequence id
	SubjectName string  `json:"subject_name"`
	Score       int     `json:"score"`
	QStart      int     `json:"query_start"` // 0-based, half-open
	QEnd        int     `json:"query_end"`
	SStart      int     `json:"subject_start"` // raw (chunk) coordinates; origin offset applied at merge
	SEnd        int     `json:"subject_end"`
	Ops         string  `json:"ops"`
	BitScore    float64 `json:"bit_score"`
	EValue      float64 `json:"evalue"`
	Identity    float64 `json:"identity"`
	OrigName    string  `json:"orig_name,omitempty"` // split-chunk origin, when the subject is a chunk
	OrigOffset  int     `json:"orig_offset,omitempty"`
	HasOrigin   bool    `json:"has_origin,omitempty"`
}

// ShardQueryWire is one query's outcome on one shard.
type ShardQueryWire struct {
	Completed bool         `json:"completed"`
	Err       string       `json:"err,omitempty"`
	Stats     search.Stats `json:"stats"`
	HSPs      []WireHSP    `json:"hsps,omitempty"`
}

// ShardResultWire is the portable form of a ShardResult: what a remote shard
// worker returns from a shard search, and what ImportShardResult rebuilds
// into a detached ShardResult for MergeShards.
type ShardResultWire struct {
	Shard      int               `json:"shard"`
	NumShards  int               `json:"num_shards"`
	MaxResults int               `json:"max_results"`
	Err        string            `json:"err,omitempty"`
	Sched      search.SchedStats `json:"sched"`
	Queries    []ShardQueryWire  `json:"queries"`
}

// Wire converts a shard result into its portable form. queries must be the
// batch the shard searched.
func (r *ShardResult) Wire(queries []string) (*ShardResultWire, error) {
	if len(queries) != len(r.results) {
		return nil, fmt.Errorf("blast: Wire got %d queries for a %d-query shard result", len(queries), len(r.results))
	}
	w := &ShardResultWire{
		Shard:      r.shard,
		NumShards:  r.numShards,
		MaxResults: r.maxResults,
		Sched:      r.sched,
		Queries:    make([]ShardQueryWire, len(r.results)),
	}
	if r.err != nil {
		w.Err = r.err.Error()
	}
	for qi := range r.results {
		qw := &w.Queries[qi]
		qw.Completed = r.completed[qi]
		if r.queryErrs[qi] != nil {
			qw.Err = r.queryErrs[qi].Error()
		}
		qw.Stats = r.results[qi].Stats
		hsps := r.results[qi].HSPs
		if !r.completed[qi] || len(hsps) == 0 {
			continue
		}
		qw.HSPs = make([]WireHSP, len(hsps))
		for i := range hsps {
			h, m := &hsps[i], &r.meta[qi][i]
			qw.HSPs[i] = WireHSP{
				Subject:     h.Subject,
				SubjectName: h.SubjectName,
				Score:       h.Aln.Score,
				QStart:      h.Aln.QStart,
				QEnd:        h.Aln.QEnd,
				SStart:      h.Aln.SStart,
				SEnd:        h.Aln.SEnd,
				Ops:         string(h.Aln.Ops),
				BitScore:    h.BitScore,
				EValue:      h.EValue,
				Identity:    m.identity,
				OrigName:    m.origName,
				OrigOffset:  m.offset,
				HasOrigin:   m.hasOrigin,
			}
		}
	}
	return w, nil
}

// ImportShardResult rebuilds a ShardResult from its wire form; it merges
// through MergeShards exactly like the original. Structural invalidity (shard out of range, negative subject ids) is an error;
// incompleteness is not — it rides through the usual Completed flags.
func ImportShardResult(w *ShardResultWire) (*ShardResult, error) {
	if w.NumShards <= 0 || w.Shard < 0 || w.Shard >= w.NumShards {
		return nil, fmt.Errorf("blast: shard result %d of %d out of range", w.Shard, w.NumShards)
	}
	r := &ShardResult{shard: w.Shard, numShards: w.NumShards, maxResults: w.MaxResults}
	r.sched = w.Sched
	r.results = make([]search.QueryResult, len(w.Queries))
	r.meta = make([][]hspMeta, len(w.Queries))
	r.completed = make([]bool, len(w.Queries))
	r.queryErrs = make([]error, len(w.Queries))
	if w.Err != "" {
		r.err = errors.New(w.Err)
	}
	for qi := range w.Queries {
		qw := &w.Queries[qi]
		r.completed[qi] = qw.Completed
		if qw.Err != "" {
			r.queryErrs[qi] = errors.New(qw.Err)
		}
		res := search.QueryResult{Query: qi, Stats: qw.Stats}
		if n := len(qw.HSPs); n > 0 {
			res.HSPs = make([]search.HSP, n)
			metas := make([]hspMeta, n)
			for i := range qw.HSPs {
				wh := &qw.HSPs[i]
				if wh.Subject < 0 {
					return nil, fmt.Errorf("blast: shard %d query %d hsp %d: negative subject id", w.Shard, qi, i)
				}
				res.HSPs[i] = search.HSP{
					Subject:     wh.Subject,
					SubjectName: wh.SubjectName,
					Aln: gapped.Alignment{
						Score:  wh.Score,
						QStart: wh.QStart,
						QEnd:   wh.QEnd,
						SStart: wh.SStart,
						SEnd:   wh.SEnd,
						Ops:    []gapped.EditOp(wh.Ops),
					},
					BitScore: wh.BitScore,
					EValue:   wh.EValue,
				}
				metas[i] = hspMeta{
					identity:  wh.Identity,
					origName:  wh.OrigName,
					offset:    wh.OrigOffset,
					hasOrigin: wh.HasOrigin,
				}
			}
			r.meta[qi] = metas
		}
		r.results[qi] = res
	}
	return r, nil
}

package blast

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/dbase"
	"repro/internal/dbindex"
	"repro/internal/search"
)

// This file holds the one partitioned-search path: what a part of a Database
// is, the raw form every search produces, and the one merge that combines
// raw results from several parts — store tiers or shards — into output
// byte-identical to searching the whole as one container. The invariants the
// merge leans on (length-sorted parts, global E-value totals, the two id
// maps, the MaxResults co-rank caveat) are described once, in DESIGN.md
// under "Partitions and the merge".

// part is one partition of a Database: a container's sequences and index,
// the engine that searches them, its split-chunk origins, and the map from
// its subject ids to the Database's. A database built or loaded as a single
// container is one part with the identity map; a store's base+deltas view is
// the base followed by the deltas in manifest order.
type part struct {
	db *dbase.DB
	ix *dbindex.Index

	// chunkOrigin records where split chunks came from, keyed by chunk name.
	// The table is persisted in the saved container (ORGN section) rather
	// than recovered from name suffixes, so sequence names containing "#"
	// are never misread as chunks.
	chunkOrigin map[string]chunkInfo

	// idMap[local] is the Database-wide subject id of this part's sequence
	// `local`, strictly ascending; nil is the identity.
	idMap []int

	mu *core.Engine
}

// chunkInfo maps a split chunk back to its source sequence.
type chunkInfo struct {
	origName string
	offset   int
}

// hspMeta is what reporting an HSP needs from the part that found it and
// nothing else can supply later: the alignment's identity fraction (needs
// subject residues) and its split-chunk origin (needs the chunkOrigin map).
// Computed at search time, so a raw result stands on its own — across the
// merge, across the wire, and after the database that produced it is gone.
type hspMeta struct {
	identity  float64
	origName  string
	offset    int
	hasOrigin bool
}

func (p *part) metaFor(q []alphabet.Code, hsps []search.HSP) []hspMeta {
	if len(hsps) == 0 {
		return nil
	}
	metas := make([]hspMeta, len(hsps))
	for i := range hsps {
		h := &hsps[i]
		metas[i].identity = identity(q, p.db.Seqs[h.Subject].Data, &h.Aln)
		if info, ok := p.chunkOrigin[h.SubjectName]; ok {
			metas[i].origName, metas[i].offset, metas[i].hasOrigin = info.origName, info.offset, true
		}
	}
	return metas
}

// rawBatch is the one form a search produces and the merge consumes:
// per-query HSPs in the producer's own id space (a part's local ids, or a
// Database's after the merge), each with its side record, plus the batch's
// completion flags. Entries of incomplete queries are placeholders.
type rawBatch struct {
	results   []search.QueryResult
	meta      [][]hspMeta // meta[q][i] describes results[q].HSPs[i]
	completed []bool
	queryErrs []error
	sched     search.SchedStats
	err       error
}

func (p *part) searchBatch(ctx context.Context, enc [][]alphabet.Code, threads int) *rawBatch {
	br := p.mu.SearchBatchCtx(ctx, enc, threads)
	raw := &rawBatch{
		results: br.Results, meta: make([][]hspMeta, len(enc)),
		completed: br.Completed, queryErrs: br.QueryErrs, sched: br.Sched, err: br.Err,
	}
	for qi, q := range enc {
		if br.Completed[qi] {
			raw.meta[qi] = p.metaFor(q, br.Results[qi].HSPs)
		}
	}
	return raw
}

// searchRaw runs the batch over every part — sequentially: a delta is a
// handful of extra blocks, and each part's scheduler already saturates the
// cores — and returns one raw batch in the Database's id space.
func (d *Database) searchRaw(ctx context.Context, enc [][]alphabet.Code) *rawBatch {
	raws := make([]*rawBatch, len(d.parts))
	for i, p := range d.parts {
		raws[i] = p.searchBatch(ctx, enc, d.params.Threads)
	}
	return d.mergeOwn(raws, len(enc))
}

// mergeOwn merges one raw batch per part of d into d's id space. A lone
// part's ids already are the Database's and its lists are ranked and capped,
// so it is handed through as is — nothing copied, no label on its error.
func (d *Database) mergeOwn(raws []*rawBatch, numQueries int) *rawBatch {
	if len(raws) == 1 {
		return raws[0]
	}
	return mergeParts("tier", raws, numQueries,
		func(p, local int) int { return d.parts[p].idMap[local] }, d.params.MaxResults, true)
}

// mergeParts combines raw batches from the parts of one logical database
// (parts[i] from part i; kind names them in errors) into the raw batch a
// search of the whole would have produced: scheduler counters folded, a
// query complete only if every part completed it, subject ids mapped into
// the parent's id space by remap, HSPs re-ranked with the single-database
// comparator and re-capped at maxResults — exactly what search.Finalize does
// after traceback on the whole database. Each HSP travels with its side
// record as one unit, so the sort cannot separate them.
//
// A nil entry stands for a part that contributed nothing (a shed or failed
// shard). Its absence poisons every query honestly: incomplete with
// ErrShardUnavailable, never merged as if the part had zero hits. sequential
// says the parts ran one after another on one worker pool (elapsed times add,
// the largest pool counts) rather than side by side, each on its own (pools
// add, the slowest part's elapsed time counts) — either way busy time never
// exceeds Workers x ElapsedNanos, so Utilization stays in (0, 1].
func mergeParts(kind string, parts []*rawBatch, numQueries int, remap func(part, local int) int, maxResults int, sequential bool) *rawBatch {
	out := &rawBatch{
		results:   make([]search.QueryResult, numQueries),
		meta:      make([][]hspMeta, numQueries),
		completed: make([]bool, numQueries),
		queryErrs: make([]error, numQueries),
	}
	var errs, missing []error
	for i, part := range parts {
		if part == nil {
			missing = append(missing, fmt.Errorf("%s %d: %w", kind, i, ErrShardUnavailable))
			continue
		}
		s, ps := &out.sched, &part.sched
		s.Tasks += ps.Tasks
		s.BusyNanos += ps.BusyNanos
		s.StallNanos += ps.StallNanos
		if sequential {
			s.Workers = max(s.Workers, ps.Workers)
			s.ElapsedNanos += ps.ElapsedNanos
		} else {
			s.Workers += ps.Workers
			s.ElapsedNanos = max(s.ElapsedNanos, ps.ElapsedNanos)
		}
		s.TasksPanicked += ps.TasksPanicked
		s.TasksCancelled += ps.TasksCancelled
		s.QueriesAborted += ps.QueriesAborted
		s.DeadlineExceeded = s.DeadlineExceeded || ps.DeadlineExceeded
		if part.err != nil {
			errs = append(errs, fmt.Errorf("%s %d: %w", kind, i, part.err))
		}
	}
	out.err = errors.Join(append(errs, missing...)...)

	type rec struct {
		hsp  search.HSP
		meta hspMeta
	}
	for qi := 0; qi < numQueries; qi++ {
		out.results[qi].Query = qi
		completed := len(missing) == 0
		var qerr error
		if !completed {
			qerr = ErrShardUnavailable
		}
		total := 0
		for _, part := range parts {
			if part == nil {
				continue
			}
			if !part.completed[qi] {
				completed = false
				if qerr == nil {
					qerr = part.queryErrs[qi]
				}
			}
			total += len(part.results[qi].HSPs)
		}
		if !completed {
			out.queryErrs[qi] = qerr
			continue
		}
		recs := make([]rec, 0, total)
		for pi, part := range parts {
			res := &part.results[qi]
			for li := range res.HSPs {
				h := res.HSPs[li]
				h.Subject = remap(pi, h.Subject)
				recs = append(recs, rec{h, part.meta[qi][li]})
			}
			out.results[qi].Stats.Add(res.Stats)
		}
		sort.SliceStable(recs, func(a, b int) bool { return search.LessHSP(&recs[a].hsp, &recs[b].hsp) })
		if maxResults > 0 && len(recs) > maxResults {
			recs = recs[:maxResults]
		}
		hsps, metas := make([]search.HSP, len(recs)), make([]hspMeta, len(recs))
		for i := range recs {
			hsps[i], metas[i] = recs[i].hsp, recs[i].meta
		}
		out.results[qi].HSPs, out.meta[qi] = hsps, metas
		out.completed[qi] = true
	}
	return out
}

// batchResult converts a raw batch in a Database's id space into the reported
// form; enc is the batch it answers.
func (raw *rawBatch) batchResult(enc [][]alphabet.Code) *BatchResult {
	out := &BatchResult{
		Results:   make([]*Result, len(enc)),
		Completed: raw.completed,
		QueryErrs: raw.queryErrs,
		Sched:     raw.sched,
		Err:       raw.err,
	}
	for i, q := range enc {
		if raw.completed[i] {
			out.Results[i] = convertHSPs(len(q), raw.results[i], raw.meta[i])
		} else {
			out.Results[i] = &Result{QueryLen: len(q)}
		}
	}
	return out
}

// MaxQueryLen is the longest query a search takes, whole: the engine's
// last-hit slots and pair records carry query offsets up to search.MaxQOff.
const MaxQueryLen = search.MaxQOff + alphabet.W

// QueryTooLongError refuses a query longer than MaxQueryLen before any of
// the batch is searched.
type QueryTooLongError struct {
	Query int // the query's index in its batch
	Len   int // its length in residues
}

func (e *QueryTooLongError) Error() string {
	return fmt.Sprintf("blast: query %d: %d residues exceeds the %d-residue limit", e.Query, e.Len, MaxQueryLen)
}

// encodeQueries turns a batch of ASCII queries into residue codes; the error
// names the first query that cannot be encoded or is too long to search
// (*QueryTooLongError). Every search entry point encodes through it.
func encodeQueries(queries []string) ([][]alphabet.Code, error) {
	enc := make([][]alphabet.Code, len(queries))
	for i, s := range queries {
		if len(s) > MaxQueryLen {
			return nil, &QueryTooLongError{Query: i, Len: len(s)}
		}
		q, err := alphabet.Encode([]byte(s))
		if err != nil {
			return nil, fmt.Errorf("blast: query %d: %w", i, err)
		}
		enc[i] = q
	}
	return enc, nil
}

// Tiered reports whether this database is a base+deltas view from an ingest
// store (true) or a single container (false).
func (d *Database) Tiered() bool { return len(d.parts) > 1 }

package blast

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/search"
)

// This file is the shard instantiation of the partitioned search: splitting
// one built database into N self-contained sub-databases (each saveable as a
// normal container), searching one on behalf of the whole, and merging the
// per-shard raw results through mergeParts with the id map local*N + shard.
// Why that map needs no stored table, why every shard computes E-values
// against the global totals, and where the merge can in theory differ from a
// monolithic search are in DESIGN.md, "Partitions and the merge".

// ErrShardUnavailable marks queries whose results are incomplete because at
// least one shard contributed nothing (shed, failed, or unreachable). The
// missing shard makes a zero-hit answer indistinguishable from a real miss,
// so such queries are reported incomplete rather than merged dishonestly.
var ErrShardUnavailable = errors.New("blast: shard unavailable, merged result would be incomplete")

// Shards splits a built database into n self-contained shard databases by
// round-robin over the length-sorted sequence order. Each shard carries the
// global search-space totals, so its E-values match the monolithic search;
// each can be saved with SaveFile as an ordinary container and later served
// by an independent process. n must not exceed the sequence count (an empty
// shard would add nothing but merge bookkeeping).
func (d *Database) Shards(n int) ([]*Database, error) {
	if n <= 0 {
		return nil, fmt.Errorf("blast: shard count must be positive, got %d", n)
	}
	if len(d.parts) > 1 {
		return nil, fmt.Errorf("blast: cannot shard a tiered (base+deltas) database; compact the store first")
	}
	whole := d.parts[0]
	if n > whole.db.NumSeqs() {
		return nil, fmt.Errorf("blast: %d shards for %d sequences; shards must not be empty", n, whole.db.NumSeqs())
	}
	parts := whole.db.Partitions(n)
	out := make([]*Database, n)
	for s := range parts {
		sub := whole.db.Subset(parts[s])
		p := d.params
		p.BlockResidues = whole.ix.BlockResidues
		p.GlobalDBResidues = whole.db.TotalResidues
		p.GlobalDBSequences = int64(whole.db.NumSeqs())
		cfg, err := buildConfig(p)
		if err != nil {
			return nil, err
		}
		// The subset of an ascending-length database is ascending, so the
		// build does not re-sort it and local id j keeps meaning monolithic
		// id j*n + s.
		ix, err := buildIndex(sub, cfg.Neighbors, p.BlockResidues, p.Threads)
		if err != nil {
			return nil, fmt.Errorf("%w (shard %d)", err, s)
		}
		var co map[string]chunkInfo
		for i := range sub.Seqs {
			if info, ok := whole.chunkOrigin[sub.Seqs[i].Name]; ok {
				if co == nil {
					co = make(map[string]chunkInfo)
				}
				co[sub.Seqs[i].Name] = info
			}
		}
		out[s] = newSingle(p, cfg, sub, ix, co, d.splitLen, d.splitOverlap)
	}
	return out, nil
}

// GlobalSearchSpace reports the search-space totals this database computes
// E-values against: the declared global totals for a shard, its own totals
// otherwise.
func (d *Database) GlobalSearchSpace() (residues, sequences int64) {
	if d.params.GlobalDBResidues > 0 {
		return d.params.GlobalDBResidues, d.params.GlobalDBSequences
	}
	return d.TotalResidues(), int64(d.NumSequences())
}

// ShardResult is one shard's raw contribution to a scatter-gather search:
// per-query HSPs still carrying shard-local subject ids, their side records,
// and the batch's completion flags. It is produced by SearchShardBatchCtx or
// rebuilt by ImportShardResult from the wire form a remote shard worker
// sent, and consumed by MergeShards; callers treat it as opaque. It holds no
// reference to the database that produced it, so it stays valid — and keeps
// nothing else alive — after that database is released or replaced.
type ShardResult struct {
	shard      int
	numShards  int
	maxResults int // the per-query report cap the shard was searched with
	rawBatch
}

// Shard returns the shard index this result came from.
func (r *ShardResult) Shard() int { return r.shard }

// NumShards returns the shard count the search was scattered over.
func (r *ShardResult) NumShards() int { return r.numShards }

// Err returns the shard batch's error (nil when it ran to the end).
func (r *ShardResult) Err() error { return r.err }

// CompletedCount returns how many queries this shard completed.
func (r *ShardResult) CompletedCount() int {
	n := 0
	for _, done := range r.completed {
		if done {
			n++
		}
	}
	return n
}

// Sched returns the shard batch's scheduler statistics.
func (r *ShardResult) Sched() search.SchedStats { return r.sched }

// NumQueries returns how many queries the shard batch carried.
func (r *ShardResult) NumQueries() int { return len(r.results) }

// QueryCompleted reports whether this shard completed query i.
func (r *ShardResult) QueryCompleted(i int) bool {
	return i >= 0 && i < len(r.completed) && r.completed[i]
}

// QueryStageSpans returns query i's per-stage pipeline timing on this shard,
// one span per stage in pipeline order — the shard-side counterpart of
// Result.StageSpans, for trace sinks that attribute scatter time to stages.
// Allocates; call only with tracing on.
func (r *ShardResult) QueryStageSpans(i int) []obs.Span {
	if i < 0 || i >= len(r.results) {
		return nil
	}
	return r.results[i].Stats.Spans()
}

// SearchShardBatchCtx searches a query batch against this database acting as
// shard `shard` of `numShards`: the result keeps raw HSPs (shard-local
// subject ids, global-statistics E-values) for MergeShards to combine with
// the other shards' into output byte-identical to a monolithic search. The
// database must actually be that shard of the logical database — built by
// Shards, or loaded from a `makedb -shards` container with the global totals
// in Params — or the merge's id restoration produces garbage.
//
// Cancellation and deadlines behave as in SearchBatchCtx: the batch stops
// between tasks, completed queries stay byte-identical, and per-query flags
// tell them apart. The returned error is non-nil only for invalid input.
func (d *Database) SearchShardBatchCtx(ctx context.Context, queries []string, shard, numShards int) (*ShardResult, error) {
	if numShards <= 0 || shard < 0 || shard >= numShards {
		return nil, fmt.Errorf("blast: shard %d of %d out of range", shard, numShards)
	}
	enc, err := encodeQueries(queries)
	if err != nil {
		return nil, err
	}
	// A store-backed shard searches base+deltas like any other Database; its
	// ids then live in the combined id space, and the round-robin restoration
	// works unchanged provided every shard of the topology serves the same
	// manifest generation (the router's coherence handshake enforces this).
	return &ShardResult{shard: shard, numShards: numShards, maxResults: d.params.MaxResults,
		rawBatch: *d.searchRaw(ctx, enc)}, nil
}

// MergeShards combines one ShardResult per shard (parts[s] from shard s)
// into a BatchResult byte-identical to searching the monolithic database:
// mergeParts with the round-robin id map (local*N + shard, shards having run
// side by side), then the same conversion — chunk-origin mapping and overlap
// deduplication included — as a single-database search.
//
// A nil entry stands for a shard that contributed nothing (shed or failed).
// Its absence poisons every query honestly: the query is marked incomplete
// with ErrShardUnavailable rather than merged as if the shard had zero hits.
// Queries a shard left incomplete (deadline, panic isolation) are likewise
// incomplete in the merge. Parts searched with different MaxResults are
// refused: no monolithic search caps at two values.
func MergeShards(queries []string, parts []*ShardResult) (*BatchResult, error) {
	numShards := len(parts)
	if numShards == 0 {
		return nil, errors.New("blast: MergeShards needs at least one shard")
	}
	raws := make([]*rawBatch, numShards)
	maxResults, present := 0, false
	for s, part := range parts {
		if part == nil {
			continue
		}
		if part.numShards != numShards || part.shard != s {
			return nil, fmt.Errorf("blast: shard result %d/%d at position %d of %d",
				part.shard, part.numShards, s, numShards)
		}
		if present && part.maxResults != maxResults {
			return nil, fmt.Errorf("blast: shard %d was searched with %d hits per query, an earlier shard with %d",
				s, part.maxResults, maxResults)
		}
		if len(part.results) != len(queries) {
			return nil, fmt.Errorf("blast: shard %d returned %d results for %d queries",
				s, len(part.results), len(queries))
		}
		if !present {
			maxResults, present = part.maxResults, true
		}
		raws[s] = &part.rawBatch
	}
	if !present {
		return nil, fmt.Errorf("blast: %w: all %d shards missing", ErrShardUnavailable, numShards)
	}
	enc, err := encodeQueries(queries)
	if err != nil {
		return nil, err
	}
	merged := mergeParts("shard", raws, len(queries),
		func(s, local int) int { return local*numShards + s }, maxResults, false)
	return merged.batchResult(enc), nil
}

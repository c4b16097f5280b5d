// Package cluster implements the paper's inter-node parallelism
// (Section IV-D) in two complementary forms:
//
//   - RunDistributed executes a *real* multi-rank muBLASTP search over the
//     mpi substrate inside one process: the database is round-robin
//     partitioned over ranks after length sorting, every rank indexes and
//     searches its partition with the multithreaded engine, and rank 0
//     merges the batch of results once at the end — exactly the structure
//     the paper runs across Stampede nodes.
//
//   - The simulator in model.go projects that structure (and mpiBLAST's) to
//     node counts far beyond one machine, using compute costs calibrated
//     from real measured runs, to regenerate Fig 10's scaling curves.
//
// RunDistributedCtx adds the failure model: a rank that panics or stops
// responding loses only its partition, which the root requeues round-robin
// onto the surviving ranks (falling back to searching it locally), so the
// merged output is identical to a fault-free run. Cancellation propagates
// through the context, and the root's deferred World.Shutdown guarantees
// Run returns even when peers are wedged.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/dbase"
	"repro/internal/dbindex"
	"repro/internal/faultinject"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/papar"
	"repro/internal/search"
)

// fiRank injects faults at the top of every rank's local search (site
// "cluster.rank"): panic kind kills that rank, exercising the failover path.
var fiRank = faultinject.NewSite("cluster.rank")

// DistOptions configures a distributed run.
type DistOptions struct {
	Ranks          int
	ThreadsPerRank int
	BlockResidues  int64
	// Contiguous switches from the paper's round-robin partitioning to
	// naive contiguous partitioning (the load-balance ablation).
	Contiguous bool
	// OpTimeout bounds every Send/Recv between ranks; a rank that stays
	// silent past it is treated as failed and its partition requeued.
	// Zero means operations wait for delivery or peer death.
	OpTimeout time.Duration
	// Metrics receives failover counters; nil selects obs.Pipe (the
	// process-default registry served by -debug-addr).
	Metrics *obs.PipelineMetrics
}

// DistStats describes the failures a distributed run absorbed.
type DistStats struct {
	RankFailures int // ranks that died or went silent
	RequeuedSeqs int // sequences reassigned to surviving ranks
	FallbackSeqs int // sequences the root searched locally as last resort
}

// phase-1 output: one per rank, gathered at root.
type rankOut struct {
	results []search.QueryResult
	work    float64 // hits processed, a proxy for local busy time
	err     error   // the rank's batch error (cancellation/deadline)
}

// phase-2 assignment: sequence ids a survivor searches on behalf of dead
// ranks. Every survivor receives one (possibly empty) and replies with a
// phase2Out, keeping the protocol uniform.
type phase2Assign struct{ seqIDs []int }

type phase2Out struct {
	results []search.QueryResult
	err     error
}

// RunDistributed searches the query batch against db using opts.Ranks
// simulated nodes. It returns results merged at rank 0, ranked exactly as a
// single-node search over the whole database (E-values use the global
// search space), plus the per-rank busy fraction (local work / max work) —
// the observable load balance.
func RunDistributed(cfg *search.Config, db *dbase.DB, queries [][]alphabet.Code, opts DistOptions) ([]search.QueryResult, []float64) {
	res, busy, _, err := RunDistributedCtx(context.Background(), cfg, db, queries, opts)
	if err != nil {
		// Unreachable without an armed fault schedule or a cancelled
		// context, neither of which this legacy entry point supplies.
		panic(err)
	}
	return res, busy
}

// RunDistributedCtx is RunDistributed under the failure model: rank panics
// are absorbed (failed partitions requeue onto survivors, root searches any
// remainder locally), Send/Recv honour opts.OpTimeout, and ctx cancellation
// aborts the batch with a typed error. The completed result set is
// byte-identical to a fault-free run whenever err is nil.
func RunDistributedCtx(ctx context.Context, cfg *search.Config, db *dbase.DB, queries [][]alphabet.Code, opts DistOptions) ([]search.QueryResult, []float64, DistStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Ranks <= 0 {
		opts.Ranks = 1
	}
	if opts.BlockResidues <= 0 {
		opts.BlockResidues = 1 << 20
	}
	met := opts.Metrics
	if met == nil {
		met = obs.Pipe
	}
	// Partition over a sorted *copy* of the id ordering (Section IV-D3),
	// leaving the caller's database untouched: an earlier version called
	// db.SortByLength() here, silently reordering the caller's sequences so
	// a subsequent local search or container write on the same *dbase.DB saw
	// a different order. The papar plans express the same two partitioners
	// declaratively; each partition lists original sequence ids in ascending
	// length order, so every rank's Subset is length-sorted exactly as
	// before.
	lengths := make([]int, db.NumSeqs())
	for i := range db.Seqs {
		lengths[i] = len(db.Seqs[i].Data)
	}
	plan := papar.SortedRoundRobin(opts.Ranks)
	if opts.Contiguous {
		plan = papar.NewPlan().SortByKey().ScatterBlock(opts.Ranks)
	}
	recParts, err := plan.Execute(papar.FromLengths(lengths))
	if err != nil {
		return nil, nil, DistStats{}, fmt.Errorf("cluster: partitioning: %w", err)
	}
	parts := papar.IndexLists(recParts)

	world, err := mpi.NewWorld(opts.Ranks, mpi.WithOpTimeout(opts.OpTimeout))
	if err != nil {
		return nil, nil, DistStats{}, fmt.Errorf("cluster: %w", err)
	}

	// searchSeqs builds the partition database + index and searches it.
	searchSeqs := func(seqIDs []int) ([]search.QueryResult, float64, error) {
		if len(seqIDs) == 0 {
			return nil, 0, nil
		}
		local := db.Subset(seqIDs)
		rankCfg := *cfg
		rankCfg.DBLenOverride = db.TotalResidues
		rankCfg.DBSeqsOverride = int64(db.NumSeqs())
		ix, err := dbindex.BuildWindow(local, cfg.Neighbors, opts.BlockResidues, cfg.TwoHit.Window)
		if err != nil {
			return nil, 0, fmt.Errorf("cluster: index partition: %w", err)
		}
		engine := core.New(&rankCfg, ix)
		br := engine.SearchBatchCtx(ctx, queries, opts.ThreadsPerRank)
		if br.Err == nil {
			// An isolated task panic poisons one query of this partition.
			// A partition that cannot vouch for every query is useless to
			// the merge, so report it as failed and let the requeue redo it.
			for qi, done := range br.Completed {
				if !done {
					return nil, 0, fmt.Errorf("cluster: partition poisoned: %w", br.QueryErrs[qi])
				}
			}
		}
		var work float64
		for i := range br.Results {
			work += float64(br.Results[i].Stats.Hits)
		}
		return br.Results, work, br.Err
	}

	// isAbort separates batch-wide aborts (cancellation, deadline: retrying
	// elsewhere cannot help) from partition-local failures (requeueable).
	isAbort := func(err error) bool {
		return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}

	merged := make([]search.QueryResult, len(queries))
	busy := make([]float64, opts.Ranks)
	var stats DistStats
	var runErr error

	wErr := world.Run(func(r *mpi.Rank) {
		if r.ID() == 0 {
			// However phase 2 unwinds, release every blocked peer so Run
			// returns: a wedged rank must never hang the whole search.
			defer world.Shutdown()
		}
		if _, err := r.Bcast(0, queries); err != nil {
			return // root gone or world shut down: nothing to contribute to
		}
		fiRank.Fire()
		results, work, searchErr := searchSeqs(parts[r.ID()])

		if r.ID() != 0 {
			if err := r.Send(0, rankOut{results: results, work: work, err: searchErr}); err != nil {
				return
			}
			// Phase 2: wait for a (possibly empty) reassignment.
			msg, err := r.Recv(0)
			if err != nil {
				return
			}
			assign := msg.(phase2Assign)
			var out phase2Out
			if len(assign.seqIDs) > 0 {
				out.results, _, out.err = searchSeqs(assign.seqIDs)
			}
			_ = r.Send(0, out)
			return
		}

		// --- root: gather phase 1, requeue dead partitions, merge ---
		outs := make([]*rankOut, opts.Ranks)
		outs[0] = &rankOut{results: results, work: work, err: searchErr}
		var orphans []int
		alive := make([]bool, opts.Ranks)
		alive[0] = true
		for from := 1; from < opts.Ranks; from++ {
			msg, err := r.Recv(from)
			if err != nil {
				// Dead or silent: the partition is orphaned, the failover
				// counter moves, and the survivors absorb the work.
				stats.RankFailures++
				orphans = append(orphans, parts[from]...)
				continue
			}
			out := msg.(rankOut)
			if out.err != nil && !isAbort(out.err) {
				// Poisoned partition: the rank is up, but its result can't
				// be trusted for every query. Requeue it like a death.
				stats.RankFailures++
				orphans = append(orphans, parts[from]...)
				continue
			}
			outs[from] = &out
			alive[from] = true
			if out.err != nil && runErr == nil {
				runErr = out.err
			}
		}
		if searchErr != nil && runErr == nil {
			runErr = searchErr
		}
		if runErr != nil {
			// Cancelled/deadline: no point redistributing work that will
			// only be cancelled again. Shutdown (deferred) frees peers.
			return
		}
		stats.RequeuedSeqs = len(orphans)

		// Round-robin the orphaned sequences over the survivors (root
		// included), preserving failover determinism: the same sequences
		// get searched, just elsewhere.
		assign := make([][]int, opts.Ranks)
		if len(orphans) > 0 {
			survivors := make([]int, 0, opts.Ranks)
			for id := 0; id < opts.Ranks; id++ {
				if alive[id] {
					survivors = append(survivors, id)
				}
			}
			for i, seq := range orphans {
				s := survivors[i%len(survivors)]
				assign[s] = append(assign[s], seq)
			}
		}

		// Dispatch assignments; a survivor dying between phases shifts its
		// share to the root's local fallback.
		var fallback []int
		for id := 1; id < opts.Ranks; id++ {
			if !alive[id] {
				continue
			}
			if err := r.Send(id, phase2Assign{seqIDs: assign[id]}); err != nil {
				fallback = append(fallback, assign[id]...)
				alive[id] = false
				stats.RankFailures++
			}
		}
		var extra []search.QueryResult
		appendResults := func(res []search.QueryResult) {
			if len(res) > 0 {
				extra = append(extra, res...)
			}
		}
		for id := 1; id < opts.Ranks; id++ {
			if !alive[id] {
				continue
			}
			msg, err := r.Recv(id)
			if err != nil {
				fallback = append(fallback, assign[id]...)
				stats.RankFailures++
				continue
			}
			out := msg.(phase2Out)
			if out.err != nil {
				if isAbort(out.err) {
					if runErr == nil {
						runErr = out.err
					}
				} else {
					fallback = append(fallback, assign[id]...)
					stats.RankFailures++
				}
				continue
			}
			appendResults(out.results)
		}
		// Root's own phase-2 share, then whatever fell all the way through.
		rootShare, _, rootErr := searchSeqs(assign[0])
		if rootErr != nil && runErr == nil {
			runErr = rootErr
		}
		appendResults(rootShare)
		if len(fallback) > 0 && runErr == nil {
			stats.FallbackSeqs = len(fallback)
			fbRes, _, fbErr := searchSeqs(fallback)
			if fbErr != nil {
				runErr = fbErr
			}
			appendResults(fbRes)
		}
		if runErr != nil {
			return
		}

		// Merge (Section IV-D3's batch merging) plus the failover extras.
		maxWork := 0.0
		for rank, out := range outs {
			if out == nil {
				continue
			}
			busy[rank] = out.work
			if out.work > maxWork {
				maxWork = out.work
			}
		}
		if maxWork > 0 {
			for rank := range busy {
				busy[rank] /= maxWork
			}
		}
		for qi := range queries {
			var hsps []search.HSP
			var st search.Stats
			for _, out := range outs {
				if out == nil {
					continue
				}
				hsps = append(hsps, out.results[qi].HSPs...)
				st.Add(out.results[qi].Stats)
			}
			for i := range extra {
				if extra[i].Query == qi {
					hsps = append(hsps, extra[i].HSPs...)
					st.Add(extra[i].Stats)
				}
			}
			sortMergedHSPs(hsps)
			if cfg.MaxResults > 0 && len(hsps) > cfg.MaxResults {
				hsps = hsps[:cfg.MaxResults]
			}
			merged[qi] = search.QueryResult{Query: qi, HSPs: hsps, Stats: st}
		}
	})

	if stats.RankFailures > 0 {
		met.RankFailovers.Add(int64(stats.RankFailures))
	}
	if runErr == nil && ctx.Err() != nil {
		runErr = search.BatchErr(ctx.Err())
	}
	// Rank panics were absorbed by failover; only surface them when the
	// batch could not be completed at all (e.g. root died).
	if runErr == nil && world.Down(0) {
		runErr = wErr
	}
	return merged, busy, stats, runErr
}

// sortMergedHSPs ranks HSPs from different partitions. Subject ids are
// partition-local, so ties break on the (globally unique) subject name
// instead, keeping merged output deterministic and rank-count independent.
func sortMergedHSPs(hsps []search.HSP) {
	sort.SliceStable(hsps, func(i, j int) bool {
		a, b := hsps[i], hsps[j]
		if a.Aln.Score != b.Aln.Score {
			return a.Aln.Score > b.Aln.Score
		}
		if a.SubjectName != b.SubjectName {
			return a.SubjectName < b.SubjectName
		}
		if a.Aln.QStart != b.Aln.QStart {
			return a.Aln.QStart < b.Aln.QStart
		}
		return a.Aln.SStart < b.Aln.SStart
	})
}

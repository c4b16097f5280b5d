// Package core implements muBLASTP, the paper's contribution: a database-
// indexed BLASTP whose stages are decoupled and whose hits are reordered so
// that the irregular memory accesses of interleaved db-indexed search
// disappear (Section IV). Per index block and query:
//
//  1. hit detection scans the query once against the block's lookup table,
//     running the pre-filter (the last-hit array of Algorithm 2, one slot per
//     diagonal of the block's coordinate axis — index positions are scanned
//     as stored, see detectPrefiltered) so that only two-hit pairs — 4.4% of
//     hits on the benchmark's batch_mixed workload, the paper's <5% (Fig 6) —
//     are buffered, and only those are decoded to (sequence, diagonal);
//  2. the buffered pairs are reordered by a stable LSD radix sort on the
//     packed (sequence, diagonal) key (Section IV-B);
//  3. ungapped extension consumes the sorted pairs, walking subject
//     sequences in order and skipping pairs covered by a previous extension
//     (Algorithm 1 lines 15–25); a pair's extension walks right only if its
//     left walk reaches the first hit's word (NCBI's rule), whose distance
//     the detection loops record in the pair's spare bits (hit.Pair.Dist);
//  4. the gapped stage and final E-value ranking live in internal/search,
//     shared with the baseline engines of internal/baseline.
//
// This is the one pipeline: the pre-filter and the LSD sort are not options.
// Where two loops remain side by side (a fast and a general detection scan, a
// score-first and a full extension), the input selects between them.
//
// The two-hit semantics are ungapped.Canon's, shared with the baselines, so
// all engines return identical results (verified in tests — the paper's
// Section V-E property).
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/alphabet"
	"repro/internal/dbindex"
	"repro/internal/gapped"
	"repro/internal/hit"
	"repro/internal/hitsort"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/search"
	"repro/internal/ungapped"
)

// Options holds what a caller may choose about an engine. The pipeline itself
// has nothing to select: the pre-filter (Section IV-C) and the LSD pair sort
// (Section IV-B) are the design, and the alternatives the paper weighs them
// against were measured once and deleted (the sorter and prefilter ablation
// table in EXPERIMENTS.md). The zero value is the default.
type Options struct {
	// Metrics receives the engine's process-wide observability stamps
	// (per-stage time, event counters, task/query latency histograms).
	// nil selects obs.Pipe, the default registry's pipeline bundle served
	// by the -debug-addr endpoint; obs.Discard routes the identical
	// stamping code to an unexported registry ("observability off").
	Metrics *obs.PipelineMetrics
}

// Engine is the muBLASTP search engine.
type Engine struct {
	Cfg *search.Config
	Ix  *dbindex.Index

	// met is the resolved metric bundle (never nil): handles are bound at
	// construction so hot-path stamping is pure atomic adds.
	met *obs.PipelineMetrics

	// subjOff and ixBase are the cache simulator's address tables (each
	// subject's and each index block's offset in its simulated space). They
	// exist only when Cfg.Trace is set and are read only under trace != nil.
	subjOff []int64
	ixBase  []int64
	// scratches pools per-worker state across Search/SearchBatch calls, so
	// steady-state searches re-allocate neither the last-hit arrays nor the
	// pair buffers nor the gapped aligner's DP rows.
	scratches sync.Pool
}

// New creates a muBLASTP engine with default options.
func New(cfg *search.Config, ix *dbindex.Index) *Engine {
	return NewWithOptions(cfg, ix, Options{})
}

// NewWithOptions creates a muBLASTP engine with explicit options. It panics
// if the two-hit window is wider than the index was padded for (see
// detectPrefiltered): blast refuses such a pairing when it opens a database,
// so only a caller that built the index itself can get here.
func NewWithOptions(cfg *search.Config, ix *dbindex.Index, opt Options) *Engine {
	if maxWindow := ix.MaxWindow(); cfg.TwoHit.Window > maxWindow {
		panic(fmt.Sprintf("core: two-hit window %d, but the index is padded for at most %d (build it with dbindex.BuildWindow)",
			cfg.TwoHit.Window, maxWindow))
	}
	if cfg.TwoHit.Window > hit.MaxWindow {
		panic(fmt.Sprintf("core: two-hit window %d, but a pair record carries distances below %d", cfg.TwoHit.Window, hit.MaxWindow))
	}
	met := opt.Metrics
	if met == nil {
		met = obs.Pipe
	}
	e := &Engine{Cfg: cfg, Ix: ix, met: met}
	if cfg.Trace != nil {
		e.subjOff = make([]int64, ix.DB.NumSeqs()+1)
		var off int64
		for i := range ix.DB.Seqs {
			e.subjOff[i] = off
			off += int64(len(ix.DB.Seqs[i].Data))
		}
		e.subjOff[ix.DB.NumSeqs()] = off
		e.ixBase = make([]int64, len(ix.Blocks))
		var base int64
		for i, b := range ix.Blocks {
			e.ixBase[i] = base
			base += b.ModelBytes()
		}
	}
	e.scratches.New = func() any { return e.newScratch() }
	return e
}

// scratch is the per-worker reusable state.
type scratch struct {
	lastPos   search.StampedLastPos
	lastPos16 search.StampedLastPos16
	pairs     []hit.Pair
	pairBuf   []hit.Pair
	exts      []ungapped.Ext
	prof      matrix.Profile
	aligner   *gapped.Aligner
}

func (e *Engine) newScratch() *scratch {
	return &scratch{aligner: gapped.NewAligner(e.Cfg.Matrix, e.Cfg.Gap)}
}

// getScratch takes a scratch from the pool (allocating on first use).
func (e *Engine) getScratch() *scratch { return e.scratches.Get().(*scratch) }

// putScratch returns a scratch for reuse by later searches.
func (e *Engine) putScratch(sc *scratch) { e.scratches.Put(sc) }

// stampDelta folds the counter movement between two Stats snapshots of the
// same query into the engine's metric bundle. Pure atomic adds: no locks,
// no allocations, safe from any worker.
func (e *Engine) stampDelta(pre, post *search.Stats) {
	m := e.met
	m.Hits.Add(post.Hits - pre.Hits)
	m.Pairs.Add(post.Pairs - pre.Pairs)
	m.SortedItems.Add(post.SortedItems - pre.SortedItems)
	m.Extensions.Add(post.Extensions - pre.Extensions)
	m.Kept.Add(post.Kept - pre.Kept)
	m.GappedExts.Add(post.GappedExts - pre.GappedExts)
	m.Tracebacks.Add(post.Tracebacks - pre.Tracebacks)
	for i := range post.StageNanos {
		m.StageNanos[i].Add(post.StageNanos[i] - pre.StageNanos[i])
	}
}

// stampTask records one completed scheduler task: the counter deltas it
// produced plus the task count. Task-grain latency is observed separately
// by the parallel layer (RunOptions.Observer feeding met.TaskNanos).
func (e *Engine) stampTask(pre, post *search.Stats) {
	e.stampDelta(pre, post)
	e.met.Tasks.Add(1)
}

// stampQueryDone records a finalized query: the finalize-stage deltas (pre
// is the query's Stats going into Finalize), the query count, and the
// query's total pipeline time.
func (e *Engine) stampQueryDone(pre *search.Stats, post *search.Stats) {
	e.stampDelta(pre, post)
	e.met.Queries.Add(1)
	e.met.QueryNanos.Observe(post.TotalStageNanos())
}

// stampSched records one batch's scheduler summary.
func (e *Engine) stampSched(ss search.SchedStats) {
	m := e.met
	m.Batches.Add(1)
	m.SchedBusyNanos.Add(ss.BusyNanos)
	m.SchedStallNanos.Add(ss.StallNanos)
	m.SchedUtilizationPermille.Set(1000 * ss.Utilization())
}

// Search runs one query through all index blocks sequentially.
func (e *Engine) Search(queryIdx int, q []alphabet.Code) search.QueryResult {
	sc := e.getScratch()
	defer e.putScratch(sc)
	var st search.Stats
	var subjects []search.SubjectAlignments
	if len(q) >= alphabet.W {
		for bi := range e.Ix.Blocks {
			subs := e.searchBlock(sc, q, bi, &st)
			subjects = append(subjects, subs...)
		}
	}
	sc.prof.Fill(e.Cfg.Matrix, q)
	res := search.Finalize(e.Cfg, sc.aligner, &sc.prof, queryIdx, q, e.Ix.DB, subjects, st)
	var zero search.Stats
	e.stampQueryDone(&zero, &res.Stats)
	return res
}

// SearchBatch runs a batch of queries across threads: one dynamic-schedule
// pass over the block-major (block × query) task grid. It is the no-context
// form of SearchBatchCtx: it never cancels, and a panicking task poisons only
// its own query (the query comes back with zero HSPs; use SearchBatchCtx to
// observe the typed per-query error and the scheduler's counters).
func (e *Engine) SearchBatch(queries [][]alphabet.Code, threads int) []search.QueryResult {
	return e.SearchBatchCtx(context.Background(), queries, threads).Results
}

// schedStatsFrom folds the grid run's counters into the search-level summary.
func schedStatsFrom(ts parallel.TaskStats) search.SchedStats {
	return search.SchedStats{
		Workers:        ts.Workers,
		Tasks:          int64(ts.Tasks),
		MinWorkerTasks: ts.MinWorkerTasks(),
		MaxWorkerTasks: ts.MaxWorkerTasks(),
		BusyNanos:      ts.TotalBusyNanos(),
		StallNanos:     ts.StallNanos(),
		ElapsedNanos:   ts.ElapsedNanos,
	}
}

// searchBlock runs the decoupled pipeline for one (block, query) pair and
// returns the per-subject gapped alignments, ascending by subject.
func (e *Engine) searchBlock(sc *scratch, q []alphabet.Code, bi int, st *search.Stats) []search.SubjectAlignments {
	b := e.Ix.Blocks[bi]
	numSeqs := b.Block.NumSeqs()
	diagBias := len(q) - alphabet.W
	maxDiags := len(q) + b.Block.MaxLen - 2*alphabet.W + 1
	coder, err := hit.NewKeyCoder(numSeqs, maxDiags)
	if err != nil {
		// Key overflow means the block is far too large for the query; the
		// index builder prevents this for any sane configuration.
		panic(fmt.Sprintf("core: block %d: %v (rebuild the index with smaller blocks)", bi, err))
	}

	// The query profile feeds both the ungapped and gapped kernels; its
	// (re)build cost — a row-copy per query position into the scratch's
	// flat buffer — is stamped into the ungapped stage as the first
	// consumer. Building per task instead of per query keeps the scratch
	// contract simple; the cost is a few microseconds against a
	// millisecond-scale task.
	profStart := time.Now()
	sc.prof.Fill(e.Cfg.Matrix, q)
	st.StageNanos[obs.StageUngapped] += int64(time.Since(profStart))

	// Stage boundaries are stamped into st.StageNanos as the task runs: two
	// clock reads per stage, no allocations. The ungapped stage is measured
	// as the extend call minus the gapped time GappedStage stamps from
	// inside it (extension flushes subjects into the gapped stage inline).
	fiHitDetect.Fire()
	e.detectPrefiltered(sc, q, bi, coder, st)
	st.SortedItems += int64(len(sc.pairs))
	stageStart := time.Now()
	e.sortPairs(sc, coder)
	st.StageNanos[obs.StageSort] += int64(time.Since(stageStart))
	gappedBefore := st.StageNanos[obs.StageGapped]
	stageStart = time.Now()
	fiExtend.Fire()
	subs := e.extendPairs(sc, q, bi, coder, diagBias, st)
	st.StageNanos[obs.StageUngapped] += int64(time.Since(stageStart)) - (st.StageNanos[obs.StageGapped] - gappedBefore)
	return subs
}

// detectPrefiltered is hit detection with the Algorithm 2 pre-filter: the
// last-hit array is consulted during detection and only two-hit pairs enter
// the buffer.
//
// The array has one slot per diagonal of the whole block, not per (sequence,
// diagonal): an indexed position is a block coordinate G (see dbindex), and a
// hit's slot is G - qOff + (len(q) - W). Two sequences that share a block
// diagonal cannot disturb each other's verdicts. On one diagonal hits arrive
// in increasing qOff, hence in increasing G, so every hit of a sequence
// precedes every hit of the next one; and the next sequence's first hit lies
// at least Pad + W = window coordinates, so window offsets, past the last
// hit before it — the distance at which the rule stores without pairing,
// which is what an empty slot does. An overlap (distance < W, the stored hit
// kept) cannot occur across sequences at all. NewWithOptions holds the window
// to what the index was padded for.
func (e *Engine) detectPrefiltered(sc *scratch, q []alphabet.Code, bi int, coder hit.KeyCoder, st *search.Stats) {
	b := e.Ix.Blocks[bi]
	diagBias := len(q) - alphabet.W
	window := int32(e.Cfg.TwoHit.Window)
	trace := e.Cfg.Trace
	if len(q)-alphabet.W > search.MaxQOff {
		// The packed last-hit word stores query offsets in 20 bits; no real
		// protein comes within an order of magnitude of this.
		panic(fmt.Sprintf("core: query length %d exceeds the %d-offset last-hit limit", len(q), search.MaxQOff))
	}

	// Two detection loops, selected by the input and by nothing else: the
	// fast scan needs no trace hooks, a window that can pair at all
	// (CheckStamp's fused compare assumes window > W), and query offsets that
	// fit the compact last-hit word; everything else (a cache-simulator trace,
	// a query past MaxQOff16) takes the general loop below.
	// Each path resets only its own slot array: the compact one halves the
	// block's randomly-accessed footprint, which is exactly what the scan is
	// bound on. The reset is the pre-filter's separable cost; the per-hit
	// checks are inlined into the scan, so their time lands in StageHitDetect
	// (DESIGN.md, observability layer).
	stageStart := time.Now()
	slots := b.Span() + diagBias + 1
	fast := trace == nil && window > alphabet.W &&
		len(q)-alphabet.W <= search.MaxQOff16
	if fast {
		sc.lastPos16.Reset(slots)
	} else {
		sc.lastPos.Reset(slots)
	}
	sc.pairs = sc.pairs[:0]
	st.StageNanos[obs.StagePrefilter] += int64(time.Since(stageStart))

	stageStart = time.Now()
	if fast {
		e.detectScanFast(sc, q, b, coder, window, st)
		st.StageNanos[obs.StageHitDetect] += int64(time.Since(stageStart))
		return
	}
	for qOff := 0; qOff+alphabet.W <= len(q); qOff++ {
		w := alphabet.WordAt(q, qOff)
		for _, v := range e.Cfg.Neighbors.Neighbors(w) {
			offs, row := b.Runs(v)
			if len(offs) == 0 {
				continue
			}
			var base int64
			if trace != nil {
				// The simulator lays the index out at the paper's 4 bytes a
				// position (dbindex.BlockIndex.ModelBytes).
				base = e.ixBase[bi] + int64(b.Base(v))*4
			}
			pi := 0
			for p := 0; len(offs) > 0; p++ {
				n := b.RunLen(v, p, row)
				g := uint32(p) << dbindex.PageShift
				for _, d := range offs[:n] {
					g = dbindex.Next(g, d)
					st.Hits++
					slot := int(g) - qOff + diagBias
					if trace != nil {
						trace(search.SpaceIndex, base+int64(pi)*4)
						// Trace models the paper's int32 lastHitArr, as in the
						// db-indexed baseline; the packed epoch word is an
						// implementation detail the simulator doesn't see.
						trace(search.SpaceLastHit, int64(slot)*4)
					}
					pi++
					if dist, paired := sc.lastPos.Check(slot, int32(qOff), window); paired {
						st.Pairs++
						if trace != nil {
							// The simulator keeps modelling the paper's 12-byte
							// pair record (key, offset, distance); ours is 8.
							trace(search.SpaceHitBuf, int64(len(sc.pairs))*12)
						}
						local, sOff := b.Decode(g)
						sc.pairs = append(sc.pairs, hit.NewPair(coder.Encode(local, sOff-qOff+diagBias), int32(qOff), dist))
					}
				}
				offs = offs[n:]
			}
		}
	}
	st.StageNanos[obs.StageHitDetect] += int64(time.Since(stageStart))
}

// detectScanFast is the untraced two-hit detection kernel: the same scan as
// detectPrefiltered's general loop with everything per-hit that is not
// load-compute-store taken out — no trace callbacks, hit counting moved to
// one add per position list, and no decode: a position's coordinate is
// rebuilt from the one before it in its run (dbindex.Next) and is its own
// slot number in the view of the last-hit array taken per query offset. The
// per-hit random access is the compact packed last-hit word (see
// search.StampedLastPos16), one cache line per hit; detectPrefiltered routes
// queries too long for the compact word through the general loop instead.
func (e *Engine) detectScanFast(sc *scratch, q []alphabet.Code, b *dbindex.BlockIndex, coder hit.KeyCoder, window int32, st *search.Stats) {
	nbrs := e.Cfg.Neighbors
	diagBias := len(q) - alphabet.W
	lastPos := sc.lastPos16
	k := pairScan{b: b, flat: b.Flat(), buf: sc.pairs[:cap(sc.pairs)], np: len(sc.pairs), span: uint32(window - alphabet.W)}
	for qOff := 0; qOff+alphabet.W <= len(q); qOff++ {
		k.stamp = lastPos.Stamp(int32(qOff))
		k.row = lastPos.From(diagBias - qOff) // slot = G - qOff + diagBias
		first := k.np
		k.scan(nbrs.Neighbors(alphabet.WordAt(q, qOff)))
		// The scan stores only the coordinate and the distance of a record;
		// the survivors of this query offset are buf[first:np].
		for i := first; i < k.np; i++ {
			k.buf[i] = hit.NewPair(k.buf[i].Key, int32(qOff), k.buf[i].QOff)
		}
	}
	sc.pairs = k.buf[:k.np]
	st.Hits += k.hits
	st.Pairs += int64(k.np)
	for i := range sc.pairs {
		p := &sc.pairs[i]
		local, sOff := b.Decode(p.Key)
		p.Key = coder.Encode(local, sOff-int(p.Off())+diagBias)
	}
}

// pairScan is detectScanFast's state at one query offset: the block, its
// position array, and what the pair test needs that does not change with
// the hit — the view of the last-hit slots, the stamp a hit stores and the
// window's span — worked out once instead of per hit.
type pairScan struct {
	b     *dbindex.BlockIndex
	flat  []uint16
	hits  int64
	buf   []hit.Pair
	np    int
	row   []uint16
	stamp uint32
	span  uint32
}

// scan runs the pair test over the positions of words, a run at a time.
// The word lookup (BlockIndex.Word) must stay inlined here: out of line, a
// call per word visit cost about 7% of detection (EXPERIMENTS.md, "PR-39
// compact word table"), which the root TestWordLookupInlined guards.
func (k *pairScan) scan(words []alphabet.Word) {
	for _, v := range words {
		lo, hi, page := k.b.Word(v)
		offs := k.flat[lo:hi]
		k.hits += int64(len(offs))
		if k.np+len(offs) > len(k.buf) {
			grown := make([]hit.Pair, (k.np+len(offs))*2)
			copy(grown, k.buf[:k.np])
			k.buf = grown
		}
		if page != dbindex.NoLead {
			k.np = k.run(offs, uint32(page)<<dbindex.PageShift)
			continue
		}
		_, row := k.b.Runs(v)
		for p := 0; len(offs) > 0; p++ {
			n := k.b.RunLen(v, p, row)
			k.np = k.run(offs[:n], uint32(p)<<dbindex.PageShift)
			offs = offs[n:]
		}
	}
}

// run runs the pair test over the positions of one run, whose page starts at
// coordinate g, and returns the new np. Pairs are written compaction-style:
// every hit stores its would-be pair record at buf[np] and advances np by
// CheckStamp's 0/1 verdict, so the loop body has no data-dependent branch and
// the out-of-order window keeps several of the random last-hit misses in
// flight instead of stalling on a mispredicted branch: ~4% of hits pair and
// about a fifth overlap the stored hit and must leave it in place, neither
// with a pattern a predictor can learn, so the verdict is an increment and
// the keep-or-replace of the slot a conditional move inside CheckStamp.
// Records of unpaired hits are dead stores that the next hit overwrites. The
// record holds only the coordinate where the key will go and CheckStamp's
// key where the packed offset will go — the key is the distance to the first
// hit when the hit pairs; the caller packs in the query offset, and the
// survivors alone are decoded.
//
// The loop gets the registers to itself only in a function of its own: in a
// loop nest, the compiler reloads a handful of spilled values per hit.
//
//go:noinline
func (k *pairScan) run(offs []uint16, g uint32) int {
	buf, np, row, stamp, span := k.buf, k.np, k.row, k.stamp, k.span
	for _, d := range offs {
		g = dbindex.Next(g, d)
		dist, inc := search.CheckStamp(&row[g], stamp, span)
		buf[np] = hit.Pair{Key: g, QOff: int32(dist)}
		np += inc
	}
	return np
}

// sortPairs reorders one task's pair buffer by (sequence, diagonal) key. The
// simulator is charged for the paper's 12-byte pair record, which the
// simulated figures are about; the records sorted are 8 bytes.
func (e *Engine) sortPairs(sc *scratch, coder hit.KeyCoder) {
	e.traceSort(len(sc.pairs), 12, (coder.KeyBits()+7)/8)
	if cap(sc.pairBuf) < len(sc.pairs) {
		sc.pairBuf = make([]hit.Pair, len(sc.pairs))
	}
	hitsort.LSDPairs(sc.pairs, coder.KeyBits(), sc.pairBuf)
}

// traceSort approximates the sort's memory traffic for the cache simulator:
// each radix pass reads the buffer sequentially and scatters to 256
// advancing output streams, which behaves like another sequential pass.
func (e *Engine) traceSort(n, recordSize, passes int) {
	trace := e.Cfg.Trace
	if trace == nil || n == 0 {
		return
	}
	for p := 0; p < passes; p++ {
		for i := 0; i < n; i++ {
			trace(search.SpaceHitBuf, int64(i)*int64(recordSize))
		}
	}
}

// extendPairs consumes sorted pairs: per key group the extension-stage
// two-hit state is a pair of scalars (Algorithm 1's reachedKey/extReached),
// and subjects arrive in ascending order so each subject sequence is walked
// once (the locality the reordering buys).
func (e *Engine) extendPairs(sc *scratch, q []alphabet.Code, bi int, coder hit.KeyCoder, diagBias int, st *search.Stats) []search.SubjectAlignments {
	b := e.Ix.Blocks[bi]
	prof := &sc.prof
	trace := e.Cfg.Trace

	var subjects []search.SubjectAlignments
	curKey := uint32(0)
	haveKey := false
	curLocal := -1
	var d ungapped.DiagState
	// sc.exts collects the task's kept extensions, subject after subject;
	// sc.exts[flushed:] are those of the current subject, not yet handed to
	// the gapped stage.
	sc.exts = sc.exts[:0]
	flushed := 0

	flushSubject := func() {
		if len(sc.exts) == flushed {
			return
		}
		gsi := b.Block.Start + curLocal
		s := e.Ix.DB.Seqs[gsi].Data
		alns := search.GappedStage(e.Cfg, sc.aligner, &sc.prof, q, s, sc.exts[flushed:], st)
		if len(alns) > 0 {
			subjects = append(subjects, search.SubjectAlignments{Subject: gsi, Alns: alns})
		}
		flushed = len(sc.exts)
	}

	// The per-pair work is Canon.ExtendPair unrolled into the loop: the
	// cover test, the need the pair record's first-hit distance sets, the
	// Trigger decision, and the ExtReached advance (to the extension end
	// only when the right walk ran) are the exact Algorithm 1 lines 15-25
	// under NCBI's extension rule (the cross-engine identity tests pin this
	// against Canon), with the kernel dispatch and key decode hoisted so the
	// 10M-pairs-per-batch loop runs call-free except the extension itself.
	//
	// Extension is score first: all but ~0.1% of pairs end at "Score <
	// Trigger", and a rejected pair leaves nothing behind but ExtReached =
	// its own offset, so it runs only the score-only walk (ExtendScore) and
	// the coordinates walk (ExtendProfile) is paid by the survivors alone.
	// The traced path extends every pair in full, because the cache simulator
	// replays each extension's subject span, kept or not; the two paths must
	// agree on everything else (TestExtendPairsScoreFirstMatchesFull).
	//
	// Which kernel runs follows from the input, not from an option: the
	// profile kernels need XDrop >= 1 and a query the profile's 16-bit
	// offsets can address (Canon.extend's own test); anything else takes the
	// matrix-indexed reference Extend.
	useProf := e.Cfg.TwoHit.XDrop >= 1 && prof.QLen < 0xFFFF
	scoreFirst := useProf && trace == nil
	xDrop := e.Cfg.TwoHit.XDrop
	trigger := e.Cfg.TwoHit.Trigger
	var extensions, kept int64
	var diag, gsi int
	var s []alphabet.Code
	for i := range sc.pairs {
		p := &sc.pairs[i]
		if !haveKey || p.Key != curKey {
			curKey = p.Key
			haveKey = true
			d.Reset()
			local, dg := coder.Decode(p.Key)
			diag = dg
			if local != curLocal {
				flushSubject()
				curLocal = local
			}
			gsi = b.Block.Start + local
			s = e.Ix.DB.Seqs[gsi].Data
		}
		at := p.Off()
		if d.ExtReached > at {
			continue // covered by a previous extension
		}
		d.ExtReached = at // further only past a kept extension that walked right
		qOff := int(at)
		sOff := diag + qOff - diagBias
		need := int(p.Dist()) - alphabet.W
		extensions++
		var ext ungapped.Ext
		var reach bool
		if scoreFirst {
			if score, _ := ungapped.ExtendScore(prof, s, qOff, sOff, xDrop, need); score < trigger {
				continue
			}
			ext, reach = ungapped.ExtendProfile(prof, s, qOff, sOff, xDrop, need)
		} else {
			if useProf {
				ext, reach = ungapped.ExtendProfile(prof, s, qOff, sOff, xDrop, need)
			} else {
				ext, reach = ungapped.Extend(e.Cfg.Matrix, q, s, qOff, sOff, xDrop, need)
			}
			if trace != nil {
				for off := e.subjOff[gsi] + int64(ext.SStart); off < e.subjOff[gsi]+int64(ext.SEnd); off++ {
					trace(search.SpaceSubject, off)
				}
			}
			if ext.Score < trigger {
				continue
			}
		}
		if reach {
			d.ExtReached = int32(ext.QEnd)
		}
		kept++
		sc.exts = append(sc.exts, ext)
	}
	st.Extensions += extensions
	st.Kept += kept
	flushSubject()
	return subjects
}

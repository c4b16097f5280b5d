// Package search defines the common configuration, result types, and shared
// pipeline stages (gapped extension, finalize and ranking, the pre-filter's
// last-hit arrays) of every BLASTP engine in this repository. The muBLASTP
// engine lives in internal/core; the baselines the paper measures it against
// live in internal/baseline. All engines share the ungapped.Canon two-hit
// semantics and the gapped stage, so their outputs are identical by
// construction — the property the paper verifies in Section V-E.
package search

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/alphabet"
	"repro/internal/dbase"
	"repro/internal/gapped"
	"repro/internal/matrix"
	"repro/internal/neighbor"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/ungapped"
)

// Trace spaces identify the logical data structure behind a traced memory
// access; the cache simulator maps each space to a distinct address range.
const (
	SpaceIndex   = iota // database or query index position arrays
	SpaceLastHit        // last-hit / diagonal state arrays
	SpaceSubject        // subject sequence residues
	SpaceHitBuf         // decoupled pipeline hit/pair buffers
	NumSpaces
)

// Config carries the scoring system and heuristic parameters shared by all
// engines. Construct with NewConfig; the zero value is not usable.
type Config struct {
	Matrix    *matrix.Matrix
	Neighbors *neighbor.Enumerator
	TwoHit    ungapped.Params
	Gap       gapped.Params

	// EValueCutoff drops alignments with a larger E-value (BLAST default 10).
	EValueCutoff float64
	// MaxResults caps reported HSPs per query (by ascending E-value).
	MaxResults int

	// UngappedKA and GappedKA are the Karlin–Altschul parameters used for
	// cutoffs and for final E-values respectively.
	UngappedKA stats.Params
	GappedKA   stats.Params

	// DBLenOverride and DBSeqsOverride, when positive, replace the local
	// database's totals in E-value computation. Distributed search sets them
	// to the global database size so every rank's E-values (and hence the
	// merged ranking) match a single-node search over the whole database.
	DBLenOverride  int64
	DBSeqsOverride int64

	// Trace, when non-nil, receives one call per significant memory access
	// in the hit-detection and ungapped-extension stages (space, byte
	// offset within that space). Used by the cache simulator to reproduce
	// the paper's Fig 2 and Fig 8 miss-rate measurements. Leave nil for
	// normal (fast) operation.
	Trace func(space uint8, offset int64)
}

// NewConfig builds a Config with BLASTP defaults (A=40, ungapped X-drop 16,
// gap 11/1, gapped X-drop 38, E-value 10) around a matrix and its neighbor
// enumerator. The gap trigger is the matrix's: an ungapped alignment
// enters the gapped stage when it scores at least ungapped.GapTriggerBits
// under the matrix's ungapped Karlin-Altschul parameters, truncated to raw
// as NCBI truncates it (41 on BLOSUM62, 56 on BLOSUM50, 57 on PAM250).
func NewConfig(m *matrix.Matrix, nbr *neighbor.Enumerator) (*Config, error) {
	ung, err := stats.UngappedParams(m, &stats.RobinsonFreqs)
	if err != nil {
		return nil, fmt.Errorf("search: ungapped Karlin-Altschul params: %w", err)
	}
	gp := gapped.DefaultParams()
	gapKA, err := stats.GappedParams(m, gp.GapOpen, gp.GapExtend)
	if err != nil {
		// Unusual matrix/penalty combination: fall back to ungapped
		// statistics, which ranks correctly even if E-values shift.
		gapKA = ung
	}
	return &Config{
		Matrix:       m,
		Neighbors:    nbr,
		TwoHit:       ungapped.Params{Window: ungapped.DefaultWindow, XDrop: ungapped.DefaultXDrop, Trigger: ung.RawScoreForBits(ungapped.GapTriggerBits)},
		Gap:          gp,
		EValueCutoff: 10,
		MaxResults:   250,
		UngappedKA:   ung,
		GappedKA:     gapKA,
	}, nil
}

// Stats counts per-query pipeline events; the experiment harness aggregates
// them to regenerate Fig 2's profile numbers and Fig 6's filter rates.
type Stats struct {
	Hits        int64 // word hits visited in hit detection
	Pairs       int64 // two-hit pairs (prefilter output / pair-check passes)
	SortedItems int64 // records that went through hit reordering
	Extensions  int64 // ungapped extensions performed
	Kept        int64 // ungapped extensions scoring at least the trigger
	GappedExts  int64 // score-only gapped extensions performed (stage 3)
	Tracebacks  int64 // traceback re-alignments of reported HSPs (stage 4)

	// Scheduler counters, set only by batch searches: how many scheduler
	// tasks (index-block × query cells) this query's work was split into and
	// how long workers spent inside them. Zero for single-query searches.
	SchedTasks     int64
	SchedBusyNanos int64

	// StageNanos[s] is the wall time this query spent in pipeline stage s
	// (obs.StageHitDetect..obs.StageTraceback). The decoupled muBLASTP
	// engine stamps every stage; the interleaved baselines stamp only the
	// shared stages (gapped, traceback), leaving the rest zero.
	StageNanos [obs.NumStages]int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Pairs += o.Pairs
	s.SortedItems += o.SortedItems
	s.Extensions += o.Extensions
	s.Kept += o.Kept
	s.GappedExts += o.GappedExts
	s.Tracebacks += o.Tracebacks
	s.SchedTasks += o.SchedTasks
	s.SchedBusyNanos += o.SchedBusyNanos
	for i := range s.StageNanos {
		s.StageNanos[i] += o.StageNanos[i]
	}
}

// TotalStageNanos sums the per-stage times: the query's total pipeline time.
func (s *Stats) TotalStageNanos() int64 {
	var n int64
	for _, v := range s.StageNanos {
		n += v
	}
	return n
}

// Spans materializes the per-stage timing as span records, one per pipeline
// stage in order (including zero-time stages, so all six are always
// present). Allocates; meant for trace sinks, not the hot path.
func (s *Stats) Spans() []obs.Span {
	out := make([]obs.Span, obs.NumStages)
	for i := range out {
		out[i] = obs.Span{Stage: obs.Stage(i).String(), Nanos: s.StageNanos[i]}
	}
	return out
}

// SchedStats summarizes the batch scheduler's behaviour over one SearchBatch
// call (the hit-search phase; per-query finalization is not counted). It is
// the batch-level complement of the per-query Sched* fields in Stats.
type SchedStats struct {
	Workers        int   // workers actually used
	Tasks          int64 // (block, query) tasks executed
	MinWorkerTasks int64 // fewest tasks any worker pulled
	MaxWorkerTasks int64 // most tasks any worker pulled
	BusyNanos      int64 // total worker-time inside tasks
	StallNanos     int64 // total worker-time outside tasks (idle behind the final wait)
	ElapsedNanos   int64 // wall-clock time of the search phase

	// Robustness counters (zero on a clean run): tasks whose panic was
	// isolated by the scheduler, tasks never started because the batch
	// context was cancelled or timed out, and queries that consequently
	// finished incomplete (cancelled or poisoned by a panic).
	TasksPanicked    int64
	TasksCancelled   int64
	QueriesAborted   int64
	DeadlineExceeded bool
}

// Utilization is the fraction of total worker-time spent inside tasks,
// in (0, 1] for any batch that did work. Straggler tasks that idle the other
// workers show up as utilization lost to StallNanos.
func (s SchedStats) Utilization() float64 {
	if s.Workers == 0 || s.ElapsedNanos <= 0 {
		return 0
	}
	return float64(s.BusyNanos) / (float64(s.Workers) * float64(s.ElapsedNanos))
}

// HSP is one reported alignment between the query and a subject sequence.
type HSP struct {
	Subject     int    // index into the (length-sorted) database
	SubjectName string // display name of the subject
	Aln         gapped.Alignment
	BitScore    float64
	EValue      float64
}

// QueryResult is the outcome of searching one query.
type QueryResult struct {
	Query int // caller-provided query index
	HSPs  []HSP
	Stats Stats
}

// ScoredAlignment is a stage-three product: a gapped alignment's score and
// span (no traceback yet) plus the seed it was extended from, so stage four
// can re-align it with traceback.
type ScoredAlignment struct {
	Aln   gapped.Alignment // Ops empty until traceback
	QSeed int
	SSeed int
}

// SubjectAlignments groups the scored gapped alignments of one subject.
type SubjectAlignments struct {
	Subject int // global sequence index in the database
	Alns    []ScoredAlignment
}

// GappedStage runs the score-only gapped extension (stage three) over the
// surviving ungapped alignments of one subject and returns deduplicated
// scored alignments; tracebacks are deferred to Finalize (stage four), the
// way BLAST re-aligns only the top-scoring alignments (Section II-A).
// Extensions are processed in a canonical order (score descending, then
// coordinates), so engines that discover the same extension set in
// different orders produce identical output.
//
// prof must be q's profile under cfg.Matrix.
func GappedStage(cfg *Config, al *gapped.Aligner, prof *matrix.Profile, q, s []alphabet.Code, exts []ungapped.Ext, st *Stats) []ScoredAlignment {
	stageStart := time.Now()
	if len(exts) > 1 {
		slices.SortStableFunc(exts, func(a, b ungapped.Ext) int {
			return cmp.Or(
				cmp.Compare(b.Score, a.Score),
				cmp.Compare(a.QStart, b.QStart),
				cmp.Compare(a.SStart, b.SStart),
			)
		})
	}
	var out []ScoredAlignment
	for _, e := range exts {
		// Skip seeds already covered by an accepted gapped alignment — the
		// same containment rule NCBI applies to avoid rediscovering one
		// alignment from multiple seeds.
		covered := false
		for i := range out {
			a := &out[i].Aln
			if e.QStart >= a.QStart && e.QEnd <= a.QEnd &&
				e.SStart >= a.SStart && e.SEnd <= a.SEnd {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		qSeed := (e.QStart + e.QEnd) / 2
		sSeed := e.SStart + (qSeed - e.QStart)
		aln := al.ExtendScoreProf(prof, q, s, qSeed, sSeed)
		st.GappedExts++
		if aln.Score <= 0 {
			continue
		}
		dup := false
		for i := range out {
			if out[i].Aln.QStart == aln.QStart && out[i].Aln.QEnd == aln.QEnd &&
				out[i].Aln.SStart == aln.SStart && out[i].Aln.SEnd == aln.SEnd {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, ScoredAlignment{Aln: aln, QSeed: qSeed, SSeed: sSeed})
		}
	}
	st.StageNanos[obs.StageGapped] += int64(time.Since(stageStart))
	return out
}

// Finalize is stage four plus reporting: per-subject scored alignments are
// converted to HSPs (bit scores and E-values from the gapped
// Karlin–Altschul parameters with BLAST's effective-length correction),
// filtered by the E-value cutoff, ranked, capped at MaxResults — and only
// the survivors are re-aligned with traceback (the paper's "Traceback
// realigns the top-scoring alignments", Section II-A; Algorithm 3 runs this
// as its second parallel loop). The re-alignment is the score pass's DP run
// again with its rows kept, and only as far as the endpoints the score pass
// left in each ScoredAlignment (gapped.TracebackProf), so prof must be q's
// profile under cfg.Matrix, as in GappedStage.
func Finalize(cfg *Config, al *gapped.Aligner, prof *matrix.Profile, queryIdx int, q []alphabet.Code, db *dbase.DB, subjects []SubjectAlignments, st Stats) QueryResult {
	dbLen, dbSeqs := db.TotalResidues, int64(db.NumSeqs())
	if cfg.DBLenOverride > 0 {
		dbLen = cfg.DBLenOverride
	}
	if cfg.DBSeqsOverride > 0 {
		dbSeqs = cfg.DBSeqsOverride
	}
	effQ, effDB := cfg.GappedKA.EffectiveLengths(int64(len(q)), dbLen, dbSeqs)
	type pending struct {
		hsp  HSP
		seed ScoredAlignment
	}
	var hsps []HSP
	var pendings []pending
	for _, se := range subjects {
		for _, a := range se.Alns {
			ev := cfg.GappedKA.EValue(a.Aln.Score, effQ, effDB)
			if ev > cfg.EValueCutoff {
				continue
			}
			pendings = append(pendings, pending{
				hsp: HSP{
					Subject:     se.Subject,
					SubjectName: db.Seqs[se.Subject].Name,
					Aln:         a.Aln,
					BitScore:    cfg.GappedKA.BitScore(a.Aln.Score),
					EValue:      ev,
				},
				seed: a,
			})
		}
	}
	hsps = make([]HSP, len(pendings))
	order := make([]int, len(pendings))
	for i := range pendings {
		hsps[i] = pendings[i].hsp
		order[i] = i
	}
	// Rank, remembering the permutation so seeds follow their HSPs.
	sortHSPsWithOrder(hsps, order)
	if cfg.MaxResults > 0 && len(hsps) > cfg.MaxResults {
		hsps = hsps[:cfg.MaxResults]
		order = order[:cfg.MaxResults]
	}
	// Stage four: traceback only for the reported alignments. The traceback
	// score can exceed the preliminary (score-only) value by a seam
	// correction (see gapped.Aligner.TracebackProf), so statistics are
	// refreshed and the final list re-ranked — mirroring BLAST, whose
	// traceback stage also re-scores the preliminary gapped alignments.
	stageStart := time.Now()
	for i := range hsps {
		seed := pendings[order[i]].seed
		full := al.TracebackProf(prof, q, db.Seqs[hsps[i].Subject].Data, seed.QSeed, seed.SSeed, seed.Aln)
		st.Tracebacks++
		hsps[i].Aln = full
		hsps[i].BitScore = cfg.GappedKA.BitScore(full.Score)
		hsps[i].EValue = cfg.GappedKA.EValue(full.Score, effQ, effDB)
	}
	SortHSPs(hsps)
	st.StageNanos[obs.StageTraceback] += int64(time.Since(stageStart))
	return QueryResult{Query: queryIdx, HSPs: hsps, Stats: st}
}

// sortHSPsWithOrder sorts hsps as SortHSPs does while permuting order the
// same way.
func sortHSPsWithOrder(hsps []HSP, order []int) {
	idx := make([]int, len(hsps))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return hspLess(&hsps[idx[a]], &hsps[idx[b]]) })
	outH := make([]HSP, len(hsps))
	outO := make([]int, len(order))
	for i, j := range idx {
		outH[i] = hsps[j]
		outO[i] = order[j]
	}
	copy(hsps, outH)
	copy(order, outO)
}

func hspLess(a, b *HSP) bool {
	if a.Aln.Score != b.Aln.Score {
		return a.Aln.Score > b.Aln.Score
	}
	if a.Subject != b.Subject {
		return a.Subject < b.Subject
	}
	if a.Aln.QStart != b.Aln.QStart {
		return a.Aln.QStart < b.Aln.QStart
	}
	return a.Aln.SStart < b.Aln.SStart
}

// SortHSPs orders HSPs by descending score with deterministic tie-breaks
// (subject id, then query start, then subject start).
func SortHSPs(hsps []HSP) {
	sort.SliceStable(hsps, func(i, j int) bool { return hspLess(&hsps[i], &hsps[j]) })
}

// LessHSP exposes the monolithic ranking order SortHSPs applies, so callers
// that must keep side records aligned with a sort (the sharded merge keeps
// per-HSP provenance) can run their own stable permutation sort and still
// rank exactly like a single-database search.
func LessHSP(a, b *HSP) bool { return hspLess(a, b) }

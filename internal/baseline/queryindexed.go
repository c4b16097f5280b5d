// Package baseline implements the engines the paper measures muBLASTP
// against, for cmd/experiments and the cross-engine identity tests only —
// nothing on the serving path imports it:
//
//   - QueryIndexed: classic NCBI-BLAST — a lookup table built from the
//     query, subjects scanned one by one (Section II-A);
//   - DBIndexed: the paper's "NCBI-db" — the same interleaved heuristics
//     run over the blocked database index, which is the configuration whose
//     irregular memory behaviour motivates muBLASTP (Section II-B);
//   - QueryIndexedDFA: QueryIndexed with FSA-BLAST's DFA hit detection
//     (Section VI).
//
// All of them share internal/search's configuration, ungapped.Canon two-hit
// semantics and gapped stage with internal/core, so their outputs are
// identical to muBLASTP's by construction — the property the paper verifies
// in Section V-E.
package baseline

import (
	"repro/internal/alphabet"
	"repro/internal/dbase"
	"repro/internal/gapped"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/qindex"
	"repro/internal/search"
	"repro/internal/ungapped"
)

// QueryIndexed is the classic NCBI-BLAST engine: a lookup table is built
// from the query, subject sequences are scanned one at a time, and hit
// detection, ungapped extension, and gapped extension run interleaved.
// One small last-hit array per subject keeps its memory behaviour
// cache-friendly (Section II-B) — this is the paper's "NCBI" baseline.
type QueryIndexed struct {
	Cfg *search.Config
	DB  *dbase.DB
	// subjOff maps a sequence index to its starting byte offset within the
	// concatenated subject space, for cache-simulation traces.
	subjOff []int64
}

// NewQueryIndexed creates the engine over db, which is used in its current
// order. For output comparisons against the db-indexed engines, pass the
// same length-sorted database those engines use.
func NewQueryIndexed(cfg *search.Config, db *dbase.DB) *QueryIndexed {
	e := &QueryIndexed{Cfg: cfg, DB: db, subjOff: make([]int64, db.NumSeqs()+1)}
	var off int64
	for i := range db.Seqs {
		e.subjOff[i] = off
		off += int64(len(db.Seqs[i].Data))
	}
	e.subjOff[db.NumSeqs()] = off
	return e
}

// qiScratch is the per-worker reusable state.
type qiScratch struct {
	diags   StampedDiags
	exts    []ungapped.Ext
	prof    matrix.Profile
	aligner *gapped.Aligner
}

func (e *QueryIndexed) newScratch() *qiScratch {
	return &qiScratch{aligner: gapped.NewAligner(e.Cfg.Matrix, e.Cfg.Gap)}
}

// Search runs one query through the engine.
func (e *QueryIndexed) Search(queryIdx int, q []alphabet.Code) search.QueryResult {
	return e.searchOne(e.newScratch(), queryIdx, q)
}

// SearchBatch searches all queries with dynamic scheduling over the given
// number of worker threads (<= 0 means GOMAXPROCS). Results are returned in
// query order.
func (e *QueryIndexed) SearchBatch(queries [][]alphabet.Code, threads int) []search.QueryResult {
	results := make([]search.QueryResult, len(queries))
	scratches := makeScratches(threads, len(queries), e.newScratch)
	parallel.ForWorkers(len(queries), threads, func(w, i int) {
		results[i] = e.searchOne(scratches[w], i, queries[i])
	})
	return results
}

func (e *QueryIndexed) searchOne(sc *qiScratch, queryIdx int, q []alphabet.Code) search.QueryResult {
	cfg := e.Cfg
	var st search.Stats
	if len(q) < alphabet.W {
		return search.Finalize(cfg, sc.aligner, &sc.prof, queryIdx, q, e.DB, nil, st)
	}
	ix := qindex.Build(q, cfg.Neighbors)
	sc.prof.Fill(cfg.Matrix, q)
	canon := &ungapped.Canon{P: cfg.TwoHit, Prof: &sc.prof}
	diagBias := len(q) - alphabet.W
	trace := cfg.Trace
	var subjects []search.SubjectAlignments

	for si := range e.DB.Seqs {
		s := e.DB.Seqs[si].Data
		if len(s) < alphabet.W {
			continue
		}
		numDiags := len(q) + len(s) - 2*alphabet.W + 1
		sc.diags.Reset(numDiags)
		sc.exts = sc.exts[:0]
		for sOff := 0; sOff+alphabet.W <= len(s); sOff++ {
			w := alphabet.WordAt(s, sOff)
			if trace != nil {
				trace(search.SpaceSubject, e.subjOff[si]+int64(sOff))
			}
			if !ix.Present(w) {
				continue
			}
			ps := ix.Positions(w)
			base := int64(ix.Base(w)) * 4
			for pi, qPos := range ps {
				st.Hits++
				diag := sOff - int(qPos) + diagBias
				if trace != nil {
					trace(search.SpaceIndex, base+int64(pi)*4)
					trace(search.SpaceLastHit, int64(diag)*8)
				}
				d := sc.diags.Get(diag)
				ext, paired, extended, keep := canon.Step(d, s, int(qPos), sOff)
				if paired {
					st.Pairs++
				}
				if extended {
					st.Extensions++
					if trace != nil {
						traceSpan(trace, search.SpaceSubject, e.subjOff[si]+int64(ext.SStart), e.subjOff[si]+int64(ext.SEnd))
					}
				}
				if keep {
					st.Kept++
					sc.exts = append(sc.exts, ext)
				}
			}
		}
		if len(sc.exts) > 0 {
			alns := search.GappedStage(cfg, sc.aligner, &sc.prof, q, s, sc.exts, &st)
			if len(alns) > 0 {
				subjects = append(subjects, search.SubjectAlignments{Subject: si, Alns: alns})
			}
		}
	}
	return search.Finalize(cfg, sc.aligner, &sc.prof, queryIdx, q, e.DB, subjects, st)
}

// traceSpan emits one traced access per byte of [lo, hi) — the sequential
// read pattern of an ungapped extension over the subject.
func traceSpan(trace func(uint8, int64), space uint8, lo, hi int64) {
	for off := lo; off < hi; off++ {
		trace(space, off)
	}
}

// makeScratches builds one scratch per worker that parallel.ForWorkers will
// actually use.
func makeScratches[T any](threads, n int, newFn func() T) []T {
	out := make([]T, parallel.NumWorkers(n, threads))
	for i := range out {
		out[i] = newFn()
	}
	return out
}

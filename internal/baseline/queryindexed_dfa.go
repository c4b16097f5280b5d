package baseline

import (
	"repro/internal/alphabet"
	"repro/internal/dbase"
	"repro/internal/gapped"
	"repro/internal/parallel"
	"repro/internal/qdfa"
	"repro/internal/search"
	"repro/internal/ungapped"
)

// QueryIndexedDFA is the FSA-BLAST variant of the query-indexed baseline
// (paper Section VI): hit detection streams each subject through a
// deterministic finite automaton built from the query instead of probing a
// lookup table. Everything downstream (two-hit logic, extensions, ranking)
// is shared, so its results are identical to QueryIndexed's — it exists for
// the index-structure ablation.
type QueryIndexedDFA struct {
	Cfg *search.Config
	DB  *dbase.DB
}

// NewQueryIndexedDFA creates the engine over db (used in its current order).
func NewQueryIndexedDFA(cfg *search.Config, db *dbase.DB) *QueryIndexedDFA {
	return &QueryIndexedDFA{Cfg: cfg, DB: db}
}

// Search runs one query through the engine.
func (e *QueryIndexedDFA) Search(queryIdx int, q []alphabet.Code) search.QueryResult {
	return e.searchOne(&qiScratch{aligner: gapped.NewAligner(e.Cfg.Matrix, e.Cfg.Gap)}, queryIdx, q)
}

// SearchBatch searches all queries with dynamic scheduling.
func (e *QueryIndexedDFA) SearchBatch(queries [][]alphabet.Code, threads int) []search.QueryResult {
	results := make([]search.QueryResult, len(queries))
	scratches := makeScratches(threads, len(queries), func() *qiScratch {
		return &qiScratch{aligner: gapped.NewAligner(e.Cfg.Matrix, e.Cfg.Gap)}
	})
	parallel.ForWorkers(len(queries), threads, func(w, i int) {
		results[i] = e.searchOne(scratches[w], i, queries[i])
	})
	return results
}

func (e *QueryIndexedDFA) searchOne(sc *qiScratch, queryIdx int, q []alphabet.Code) search.QueryResult {
	cfg := e.Cfg
	var st search.Stats
	if len(q) < alphabet.W {
		return search.Finalize(cfg, sc.aligner, &sc.prof, queryIdx, q, e.DB, nil, st)
	}
	dfa := qdfa.Build(q, cfg.Neighbors)
	sc.prof.Fill(cfg.Matrix, q)
	canon := &ungapped.Canon{P: cfg.TwoHit, Prof: &sc.prof}
	diagBias := len(q) - alphabet.W
	var subjects []search.SubjectAlignments

	for si := range e.DB.Seqs {
		s := e.DB.Seqs[si].Data
		if len(s) < alphabet.W {
			continue
		}
		numDiags := len(q) + len(s) - 2*alphabet.W + 1
		sc.diags.Reset(numDiags)
		sc.exts = sc.exts[:0]
		dfa.Scan(s, func(sOff int, qPos int32) {
			st.Hits++
			diag := sOff - int(qPos) + diagBias
			d := sc.diags.Get(diag)
			ext, paired, extended, keep := canon.Step(d, s, int(qPos), sOff)
			if paired {
				st.Pairs++
			}
			if extended {
				st.Extensions++
			}
			if keep {
				st.Kept++
				sc.exts = append(sc.exts, ext)
			}
		})
		if len(sc.exts) > 0 {
			alns := search.GappedStage(cfg, sc.aligner, &sc.prof, q, s, sc.exts, &st)
			if len(alns) > 0 {
				subjects = append(subjects, search.SubjectAlignments{Subject: si, Alns: alns})
			}
		}
	}
	return search.Finalize(cfg, sc.aligner, &sc.prof, queryIdx, q, e.DB, subjects, st)
}

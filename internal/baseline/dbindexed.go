package baseline

import (
	"repro/internal/alphabet"
	"repro/internal/dbindex"
	"repro/internal/gapped"
	"repro/internal/matrix"
	"repro/internal/neighbor"
	"repro/internal/parallel"
	"repro/internal/search"
	"repro/internal/ungapped"
)

// DBIndexed is the paper's "NCBI-db" baseline: the classic interleaved
// heuristics (hit → immediate two-hit check → immediate ungapped extension)
// running over the blocked database index. Because a scan of the query
// touches positions from many subject sequences, the engine keeps one
// last-hit state per (subject, diagonal) of the whole block and the
// execution jumps between subject sequences — the irregular memory pattern
// Fig 2 profiles and muBLASTP removes.
type DBIndexed struct {
	Cfg *search.Config
	Ix  *dbindex.Index
	// subjOff maps global sequence index to its byte offset in the
	// concatenated subject space (trace addressing).
	subjOff []int64
	// ixBase maps a block number to the byte offset of its position array
	// in the concatenated index space (trace addressing), which lays blocks
	// out at the paper's 4 bytes a position (dbindex.BlockIndex.ModelBytes).
	ixBase []int64
	// pos is each block's position array resolved once to what NCBI-db's own
	// index stores, (local sequence id, subject offset): the shared index
	// stores block coordinates, in 16-bit runs, for muBLASTP's scan, and
	// resolving one per hit would charge this baseline a table walk its model
	// does not have.
	pos [][]seqPos
}

type seqPos struct{ local, sOff int32 }

// NewDBIndexed creates the engine over a built index.
func NewDBIndexed(cfg *search.Config, ix *dbindex.Index) *DBIndexed {
	e := &DBIndexed{Cfg: cfg, Ix: ix, subjOff: make([]int64, ix.DB.NumSeqs()+1)}
	var off int64
	for i := range ix.DB.Seqs {
		e.subjOff[i] = off
		off += int64(len(ix.DB.Seqs[i].Data))
	}
	e.subjOff[ix.DB.NumSeqs()] = off
	e.ixBase = make([]int64, len(ix.Blocks))
	e.pos = make([][]seqPos, len(ix.Blocks))
	var base int64
	for i, b := range ix.Blocks {
		e.ixBase[i] = base
		base += b.ModelBytes()
		e.pos[i] = make([]seqPos, b.NumPositions())
		for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
			first := int(b.Base(w))
			for pi, g := range b.Positions(w) {
				local, sOff := b.Decode(g)
				e.pos[i][first+pi] = seqPos{int32(local), int32(sOff)}
			}
		}
	}
	return e
}

// dbiScratch is the per-worker reusable state.
type dbiScratch struct {
	diags    StampedDiags
	seqSlots []int32
	prof     matrix.Profile
	// extLists collects surviving ungapped extensions per local sequence of
	// the current block; touched lists the locals with at least one.
	extLists [][]ungapped.Ext
	touched  []int32
	aligner  *gapped.Aligner
	plan     neighbor.Plan // the query's neighbor words, for every block
}

func (e *DBIndexed) newScratch() *dbiScratch {
	return &dbiScratch{aligner: gapped.NewAligner(e.Cfg.Matrix, e.Cfg.Gap)}
}

// Search runs one query through the engine.
func (e *DBIndexed) Search(queryIdx int, q []alphabet.Code) search.QueryResult {
	return e.searchOne(e.newScratch(), queryIdx, q)
}

// SearchBatch searches all queries in parallel (dynamic scheduling).
func (e *DBIndexed) SearchBatch(queries [][]alphabet.Code, threads int) []search.QueryResult {
	results := make([]search.QueryResult, len(queries))
	scratches := makeScratches(threads, len(queries), e.newScratch)
	parallel.ForWorkers(len(queries), threads, func(w, i int) {
		results[i] = e.searchOne(scratches[w], i, queries[i])
	})
	return results
}

func (e *DBIndexed) searchOne(sc *dbiScratch, queryIdx int, q []alphabet.Code) search.QueryResult {
	cfg := e.Cfg
	var st search.Stats
	if len(q) < alphabet.W {
		return search.Finalize(cfg, sc.aligner, &sc.prof, queryIdx, q, e.Ix.DB, nil, st)
	}
	sc.prof.Fill(cfg.Matrix, q)
	sc.plan.Fill(cfg.Neighbors, q, nil)
	canon := &ungapped.Canon{P: cfg.TwoHit, Prof: &sc.prof}
	diagBias := len(q) - alphabet.W
	trace := cfg.Trace
	var subjects []search.SubjectAlignments

	for bi, b := range e.Ix.Blocks {
		numSeqs := b.Block.NumSeqs()
		// Per-sequence diagonal offsets into one flat state array: sequence
		// local l owns slots [seqSlots[l], seqSlots[l+1]).
		if cap(sc.seqSlots) < numSeqs+1 {
			sc.seqSlots = make([]int32, numSeqs+1)
		}
		sc.seqSlots = sc.seqSlots[:numSeqs+1]
		total := int32(0)
		for l := 0; l < numSeqs; l++ {
			sc.seqSlots[l] = total
			sl := len(e.Ix.DB.Seqs[b.Block.Start+l].Data)
			if sl >= alphabet.W {
				total += int32(len(q) + sl - 2*alphabet.W + 1)
			}
		}
		sc.seqSlots[numSeqs] = total
		sc.diags.Reset(int(total))
		if cap(sc.extLists) < numSeqs {
			sc.extLists = make([][]ungapped.Ext, numSeqs)
		}
		sc.extLists = sc.extLists[:numSeqs]
		sc.touched = sc.touched[:0]

		for qOff := 0; qOff+alphabet.W <= len(q); qOff++ {
			for _, v := range sc.plan.At(qOff) {
				offs, _, _ := b.Lead(v)
				if len(offs) == 0 {
					continue
				}
				first := int(b.Base(v))
				base := e.ixBase[bi] + int64(first)*4
				for pi, p := range e.pos[bi][first : first+len(offs)] {
					st.Hits++
					local, sOff := int(p.local), int(p.sOff)
					gsi := b.Block.Start + local
					s := e.Ix.DB.Seqs[gsi].Data
					diag := sOff - qOff + diagBias
					slot := int(sc.seqSlots[local]) + diag
					if trace != nil {
						trace(search.SpaceIndex, base+int64(pi)*4)
						trace(search.SpaceLastHit, int64(slot)*8)
					}
					d := sc.diags.Get(slot)
					ext, paired, extended, keep := canon.Step(d, s, qOff, sOff)
					if paired {
						st.Pairs++
					}
					if extended {
						st.Extensions++
						if trace != nil {
							traceSpan(trace, search.SpaceSubject, e.subjOff[gsi]+int64(ext.SStart), e.subjOff[gsi]+int64(ext.SEnd))
						}
					}
					if keep {
						st.Kept++
						if len(sc.extLists[local]) == 0 {
							sc.touched = append(sc.touched, int32(local))
						}
						sc.extLists[local] = append(sc.extLists[local], ext)
					}
				}
			}
		}

		// Gapped stage per touched subject, in ascending local order so the
		// output ordering matches the other engines. touched was appended in
		// first-keep order, which is not sorted; sort it.
		sortInt32(sc.touched)
		for _, local := range sc.touched {
			gsi := b.Block.Start + int(local)
			s := e.Ix.DB.Seqs[gsi].Data
			alns := search.GappedStage(cfg, sc.aligner, &sc.prof, q, s, sc.extLists[local], &st)
			sc.extLists[local] = sc.extLists[local][:0]
			if len(alns) > 0 {
				subjects = append(subjects, search.SubjectAlignments{Subject: gsi, Alns: alns})
			}
		}
	}
	return search.Finalize(cfg, sc.aligner, &sc.prof, queryIdx, q, e.Ix.DB, subjects, st)
}

// sortInt32 sorts a small int32 slice ascending (insertion sort: touched
// lists are short and nearly sorted).
func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// Package blast is the public API of this muBLASTP reproduction: a
// database-indexed protein sequence search library (BLASTP) for multicore
// machines, implementing Zhang et al., "Eliminating Irregularities of
// Protein Sequence Search on Multicore Architectures" (IPDPS 2017).
//
// Basic use:
//
//	db, err := blast.NewDatabase(seqs, blast.DefaultParams())
//	res, err := db.Search("MKTAYIAKQR...")
//	for _, h := range res.Hits { fmt.Println(h.SubjectName, h.EValue) }
//
// The database index is built once (NewDatabase) and reused across queries
// and batches — the design point of database-indexed BLAST. There is one
// engine, muBLASTP (internal/core); the baselines the paper compares it with
// live in internal/baseline for cmd/experiments (-exp verify, -exp fig9).
package blast

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/dbase"
	"repro/internal/dbindex"
	"repro/internal/gapped"
	"repro/internal/matrix"
	"repro/internal/neighbor"
	"repro/internal/search"
)

// Params configures a database and its searches. Start from DefaultParams():
// a "default" below is its value; zero has a meaning only where a field says.
//
// The search rules themselves are not Params: the neighbor threshold T = 11,
// the two-hit window A = 40, the ungapped X-drop 16, the gap penalties 11/1
// and the gapped X-drop 38 are NCBI BLASTP's defaults, the values the paper
// evaluates with, and come from neighbor.DefaultThreshold and
// search.NewConfig. A change to any of them moves reply bytes, so it is a
// change of RulesVersion, not a setting.
type Params struct {
	// Matrix names the substitution matrix: BLOSUM62 (default), BLOSUM50,
	// or PAM250. The gap trigger (NCBI's 22 bits, 41 raw on BLOSUM62) and
	// the Karlin-Altschul statistics are derived from it.
	Matrix string
	// EValueCutoff drops weaker hits (default 10).
	EValueCutoff float64
	// MaxResults caps hits per query (default 250).
	MaxResults int
	// BlockResidues caps index-block size in residues, at least
	// dbindex.MinBlockResidues (1024); 0 sizes blocks by the paper's L3 rule
	// for the configured thread count.
	BlockResidues int64
	// Threads used by batch searches and index builds; 0 means GOMAXPROCS.
	Threads int
	// SplitLongerThan splits subject sequences longer than this into
	// overlapping chunks before indexing (the Orion-style handling of
	// ~40k-residue sequences, paper Section IV-A); hits are mapped back to
	// original coordinates. 0 means the default of 10000; negative disables.
	SplitLongerThan int
	// SplitOverlap is the chunk overlap in residues (default 256).
	SplitOverlap int
	// GlobalDBResidues and GlobalDBSequences, when positive, declare that
	// this database is one shard of a larger logical database with the given
	// totals: E-values (and hence cutoff filtering and ranking) are computed
	// against the global search space, so hits from this shard merge
	// byte-identically with the other shards' into a single-database result
	// (paper Section IV-D3's global-statistics merge). Both must be set
	// together; they are search-time parameters, not part of the container
	// build fingerprint. Zero means the database is the whole search space.
	GlobalDBResidues  int64
	GlobalDBSequences int64
}

// DefaultParams returns the BLASTP defaults the paper evaluates with.
func DefaultParams() Params {
	return Params{
		Matrix:       "BLOSUM62",
		EValueCutoff: 10,
		MaxResults:   250,
	}
}

// Sequence is one named protein sequence in ASCII residues.
type Sequence struct {
	Name     string
	Residues string
}

// Database is an indexed, searchable protein database: an ordered list of
// one or more parts (see parts.go) searched under one configuration. Subject
// ids in results are Database-wide; each part maps its own ids into them.
type Database struct {
	params Params
	cfg    *search.Config
	parts  []*part

	// Effective split geometry the database was built with (0/0 when
	// splitting is disabled); recorded in the saved container's fingerprint.
	splitLen     int
	splitOverlap int

	// Ingest-store provenance (zero when not opened from a store): the
	// manifest commit seq, its content hash, and the delta count — the
	// router's mixed-manifest refusal token.
	manifestSeq  int64
	manifestHash string
	numDeltas    int
}

// newSingle wires one container's sequences and index to the engine that
// searches them and wraps the part as a one-part Database.
func newSingle(p Params, cfg *search.Config, db *dbase.DB, ix *dbindex.Index, origins map[string]chunkInfo, splitLen, overlap int) *Database {
	whole := &part{db: db, ix: ix, chunkOrigin: origins, mu: core.New(cfg, ix)}
	return &Database{params: p, cfg: cfg, parts: []*part{whole}, splitLen: splitLen, splitOverlap: overlap}
}

// NewDatabase encodes and indexes the sequences. Sequences are length-
// sorted internally; hit ordering in results is by score, not input order.
func NewDatabase(seqs []Sequence, p Params) (*Database, error) {
	encoded := make([][]alphabet.Code, len(seqs))
	names := make([]string, len(seqs))
	for i, s := range seqs {
		e, err := alphabet.Encode([]byte(s.Residues))
		if err != nil {
			return nil, fmt.Errorf("blast: sequence %q: %w", s.Name, err)
		}
		encoded[i] = e
		names[i] = s.Name
	}
	db := dbase.New(encoded)
	for i := range db.Seqs {
		if names[i] != "" {
			db.Seqs[i].Name = names[i]
		}
	}
	return newDatabaseFrom(db, p)
}

func newDatabaseFrom(db *dbase.DB, p Params) (*Database, error) {
	cfg, err := buildConfig(p)
	if err != nil {
		return nil, err
	}
	splitLen, overlap := effectiveSplit(p)
	var chunkOrigin map[string]chunkInfo
	if splitLen > 0 {
		origNames := make([]string, db.NumSeqs())
		for i := range db.Seqs {
			origNames[i] = db.Seqs[i].Name
		}
		split, origins := dbase.SplitLong(db, splitLen, overlap)
		if split.NumSeqs() != db.NumSeqs() {
			chunkOrigin = make(map[string]chunkInfo)
			for i := range split.Seqs {
				o := origins[i]
				if o.Offset > 0 || split.Seqs[i].Name != origNames[o.OrigIndex] {
					chunkOrigin[split.Seqs[i].Name] = chunkInfo{origName: origNames[o.OrigIndex], offset: o.Offset}
				}
			}
			db = split
		}
	}
	blockResidues := p.BlockResidues
	if blockResidues <= 0 {
		threads := p.Threads
		if threads <= 0 {
			threads = runtime.GOMAXPROCS(0)
		}
		// Paper Section V-B sizing rule against a 30MB LLC default.
		blockResidues = dbindex.OptimalBlockResidues(30<<20, threads)
	}
	ix, err := buildIndex(db, cfg.Neighbors, blockResidues, p.Threads)
	if err != nil {
		return nil, err
	}
	return newSingle(p, cfg, db, ix, chunkOrigin, splitLen, overlap), nil
}

// buildIndex indexes db (length-sorting it first, if it is not) in blocks of
// at most blockResidues residues, padded for this build's two-hit window, on
// threads workers (0 means GOMAXPROCS), and hands the index nbr to carry. It
// is the one path to every index a Database holds: NewDatabase, Shards and
// Compact build with it, and Load and OpenStore rebuild with it what a
// container's sequences imply. A block size below dbindex.MinBlockResidues
// is refused.
func buildIndex(db *dbase.DB, nbr *neighbor.Enumerator, blockResidues int64, threads int) (*dbindex.Index, error) {
	if blockResidues < dbindex.MinBlockResidues {
		return nil, fmt.Errorf("blast: block residues %d below the minimum of %d", blockResidues, dbindex.MinBlockResidues)
	}
	ix, err := dbindex.BuildParallel(db, nbr, blockResidues, threads)
	if err != nil {
		return nil, fmt.Errorf("blast: building index: %w", err)
	}
	return ix, nil
}

// effectiveSplit resolves Params' long-sequence split geometry to the values
// actually applied: (0, 0) when splitting is disabled, otherwise the
// threshold and overlap with defaults filled in. Load compares these against
// the saved fingerprint.
func effectiveSplit(p Params) (splitLen, overlap int) {
	splitLen = p.SplitLongerThan
	if splitLen == 0 {
		splitLen = 10000
	}
	overlap = p.SplitOverlap
	if overlap <= 0 {
		overlap = 256
	}
	if splitLen <= 0 || overlap >= splitLen {
		return 0, 0
	}
	return splitLen, overlap
}

// configFor memoizes search.NewConfig and the neighbor enumerator under it:
// both are pure functions of the matrix, read-only once built, and the
// config costs a few hundred microseconds (the Karlin-Altschul solves) —
// which would dominate every small delta-container
// build on the ingestion path, every store view, and every repeated
// NewDatabase or Load in one process. Built-in matrices are canonical
// singletons, so the name keys the cache. The caller gets a copy to set its
// own fields on.
func configFor(m *matrix.Matrix) (search.Config, error) {
	configMu.Lock()
	defer configMu.Unlock()
	if c, ok := configCache[m.Name]; ok {
		return *c, nil
	}
	c, err := search.NewConfig(m, neighbor.New(m, neighbor.DefaultThreshold))
	if err != nil {
		return search.Config{}, err
	}
	configCache[m.Name] = c
	return *c, nil
}

var (
	configMu    sync.Mutex
	configCache = map[string]*search.Config{}
)

func buildConfig(p Params) (*search.Config, error) {
	m, err := matrix.ByName(p.Matrix)
	if err != nil {
		return nil, fmt.Errorf("blast: %w", err)
	}
	c, err := configFor(m)
	if err != nil {
		return nil, fmt.Errorf("blast: %w", err)
	}
	cfg := &c
	cfg.EValueCutoff = p.EValueCutoff
	cfg.MaxResults = p.MaxResults
	// Shard-of-a-larger-database statistics: both totals must travel
	// together, or every E-value in the merged ranking drifts from the
	// monolithic search (the partition-boundary bug class this guards).
	if (p.GlobalDBResidues > 0) != (p.GlobalDBSequences > 0) {
		return nil, fmt.Errorf("blast: GlobalDBResidues and GlobalDBSequences must be set together (got %d residues, %d sequences)",
			p.GlobalDBResidues, p.GlobalDBSequences)
	}
	cfg.DBLenOverride = p.GlobalDBResidues
	cfg.DBSeqsOverride = p.GlobalDBSequences
	return cfg, nil
}

// NumSequences returns the number of database sequences (summed across
// base + deltas for a tiered database).
func (d *Database) NumSequences() int {
	n := 0
	for _, p := range d.parts {
		n += p.db.NumSeqs()
	}
	return n
}

// SearchSettings reports the result-shaping parameters this database serves
// with: the E-value cutoff and the per-query report cap. Shard-coherent
// serving checks them across replicas — they must match or merged output
// drifts from the monolithic search.
func (d *Database) SearchSettings() (evalueCutoff float64, maxResults int) {
	return d.params.EValueCutoff, d.params.MaxResults
}

// TotalResidues returns the total residue count (summed across base + deltas
// for a tiered database).
func (d *Database) TotalResidues() int64 {
	var n int64
	for _, p := range d.parts {
		n += p.db.TotalResidues
	}
	return n
}

// NumBlocks returns the number of index blocks (across all tiers).
func (d *Database) NumBlocks() int {
	n := 0
	for _, p := range d.parts {
		n += len(p.ix.Blocks)
	}
	return n
}

// IndexSizeBytes returns the in-memory size of the database index (across
// all tiers).
func (d *Database) IndexSizeBytes() int64 {
	var n int64
	for _, p := range d.parts {
		n += p.ix.SizeBytes()
	}
	return n
}

// SubjectResidues returns the residues of a subject by its Hit.Subject id.
// For a tiered database the id is in the combined (rebuild-global) space.
func (d *Database) SubjectResidues(subject int) string {
	for _, p := range d.parts {
		local := subject
		if p.idMap != nil {
			if local = sort.SearchInts(p.idMap, subject); local == len(p.idMap) || p.idMap[local] != subject {
				continue
			}
		}
		return alphabet.String(p.db.Seqs[local].Data)
	}
	panic(fmt.Sprintf("blast: subject id %d is not in the database", subject))
}

// Hit is one reported alignment.
type Hit struct {
	Subject      int // database-internal subject id (see SubjectResidues)
	SubjectName  string
	Score        int // raw alignment score
	BitScore     float64
	EValue       float64
	QueryStart   int // 0-based, half-open
	QueryEnd     int
	SubjectStart int
	SubjectEnd   int
	Identity     float64 // fraction of aligned columns with identical residues
	Ops          string  // traceback: M (aligned pair), I (gap in query), D (gap in subject)
}

// Result is the outcome of one query.
type Result struct {
	QueryLen int
	Hits     []Hit
	Stats    search.Stats
}

// Search runs a single query through the muBLASTP engine: the one-query
// batch, its (block × query) tasks spread over Params.Threads workers. Like
// SearchBatch it never cancels; a panicking task comes back as the query's
// error.
func (d *Database) Search(query string) (*Result, error) {
	enc, err := encodeQueries([]string{query})
	if err != nil {
		return nil, err
	}
	raw := d.searchRaw(context.Background(), enc)
	if !raw.completed[0] {
		return nil, fmt.Errorf("blast: query: %w", raw.queryErrs[0])
	}
	return convertHSPs(len(enc[0]), raw.results[0], raw.meta[0]), nil
}

// SearchBatch runs a batch of queries through the muBLASTP engine with the
// configured thread count: one dynamic schedule over the block-major
// (block × query) task grid. It is the no-context form of SearchBatchCtx: it
// never cancels and drops the scheduler counters.
func (d *Database) SearchBatch(queries []string) ([]*Result, error) {
	enc, err := encodeQueries(queries)
	if err != nil {
		return nil, err
	}
	return d.searchRaw(context.Background(), enc).batchResult(enc).Results, nil
}

// convertHSPs turns ranked HSPs in a Database's id space into reported Hits;
// metas[i] is the side record of res.HSPs[i]. Every search — one part or
// many, tiers or shards, resident or wire-imported — funnels through this one
// function, so chunk-coordinate mapping and overlap deduplication (also
// across parts: chunks of one long subject may land in different ones)
// behave identically on every path.
func convertHSPs(queryLen int, res search.QueryResult, metas []hspMeta) *Result {
	out := &Result{QueryLen: queryLen, Stats: res.Stats, Hits: make([]Hit, 0, len(res.HSPs))}
	type hitKey struct {
		name          string
		score, qs, ss int
	}
	var seen map[hitKey]bool
	for i := range res.HSPs {
		h := &res.HSPs[i]
		hit := Hit{
			Subject:      h.Subject,
			SubjectName:  h.SubjectName,
			Score:        h.Aln.Score,
			BitScore:     h.BitScore,
			EValue:       h.EValue,
			QueryStart:   h.Aln.QStart,
			QueryEnd:     h.Aln.QEnd,
			SubjectStart: h.Aln.SStart,
			SubjectEnd:   h.Aln.SEnd,
			Identity:     metas[i].identity,
			Ops:          string(h.Aln.Ops),
		}
		// Map split chunks back to original-sequence coordinates and drop
		// duplicates found in the overlap region of adjacent chunks
		// (Section IV-A's assembly step).
		if m := &metas[i]; m.hasOrigin {
			hit.SubjectName = m.origName
			hit.SubjectStart += m.offset
			hit.SubjectEnd += m.offset
			if seen == nil {
				seen = make(map[hitKey]bool)
			}
			k := hitKey{m.origName, hit.Score, hit.QueryStart, hit.SubjectStart}
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		out.Hits = append(out.Hits, hit)
	}
	return out
}

// identity computes the fraction of alignment columns that are identical
// residue pairs.
func identity(q, s []alphabet.Code, a *gapped.Alignment) float64 {
	if len(a.Ops) == 0 {
		return 0
	}
	qi, sj, same := a.QStart, a.SStart, 0
	for _, op := range a.Ops {
		switch op {
		case gapped.OpMatch:
			if q[qi] == s[sj] {
				same++
			}
			qi, sj = qi+1, sj+1
		case gapped.OpIns:
			sj++
		case gapped.OpDel:
			qi++
		}
	}
	return float64(same) / float64(len(a.Ops))
}

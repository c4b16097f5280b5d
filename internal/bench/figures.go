package bench

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/alphabet"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/seqgen"
	"repro/internal/simcache"
)

// ScaledLLCBytes is the simulated last-level cache size for a database of
// dbBytes residues: the paper's env_nr (1.7GB) to 30MB LLC ratio is roughly
// 57:1, so the scaled model keeps LLC ~= dbBytes/4..57 with sane clamps.
// Index blocks are sized against this same value (Scale.blockResidues), so
// the block:LLC relationship of the paper's Section V-B holds at any scale.
func ScaledLLCBytes(dbBytes int64) int64 {
	llc := dbBytes / 4
	if llc < 256<<10 {
		llc = 256 << 10
	}
	if llc > 30<<20 {
		llc = 30 << 20
	}
	return llc
}

// scaledHierarchy sizes a simulated memory hierarchy in proportion to the
// scaled-down database, so the workload stresses it the way the paper's
// full-size databases stress a real 30MB LLC. The shape (L1:L2:LLC ratios)
// follows the evaluation machine.
func scaledHierarchy(dbBytes int64) *simcache.Hierarchy {
	llc := ScaledLLCBytes(dbBytes)
	l2 := int(llc / 64)
	if l2 < 32<<10 {
		l2 = 32 << 10
	}
	l1 := l2 / 8
	if l1 < 8<<10 {
		l1 = 8 << 10
	}
	tlb := int(llc >> 15) // ~1 entry per 32KB of LLC
	if tlb < 64 {
		tlb = 64
	}
	if tlb > 1536 {
		tlb = 1536
	}
	return simcache.NewHierarchy(l1, l2, int(llc), tlb)
}

// engineRunner abstracts "search one query" for the trace harness.
type engineRunner struct {
	name string
	run  func(cfg *search.Config, q []alphabet.Code) search.QueryResult
}

func runners(w *Workload) []engineRunner {
	return []engineRunner{
		{"NCBI", func(cfg *search.Config, q []alphabet.Code) search.QueryResult {
			return baseline.NewQueryIndexed(cfg, w.DB).Search(0, q)
		}},
		{"NCBI-db", func(cfg *search.Config, q []alphabet.Code) search.QueryResult {
			return baseline.NewDBIndexed(cfg, w.Index).Search(0, q)
		}},
		{"muBLASTP", func(cfg *search.Config, q []alphabet.Code) search.QueryResult {
			return core.New(cfg, w.Index).SearchBatch([][]alphabet.Code{q}, 1)[0]
		}},
	}
}

// Fig2 reproduces the motivation profile (Fig 2): LLC miss rate, TLB miss
// rate, stalled-cycle proxy, and execution time for the query-indexed and
// db-indexed NCBI pipelines searching one length-512 query against the
// env_nr-like database. A muBLASTP column is added to show the fix.
func Fig2(s Scale) (*Table, error) {
	w, err := EnvNR(s)
	if err != nil {
		return nil, err
	}
	q := w.Queries["512"][0]
	t := &Table{
		Title:   "Fig 2: profile of query-indexed vs db-indexed NCBI (env_nr-like, one 512-residue query)",
		Columns: []string{"metric", "NCBI", "NCBI-db", "muBLASTP"},
	}
	type row struct {
		llc, tlb, stall float64
		elapsed         time.Duration
	}
	results := make([]row, 0, 3)
	for _, r := range runners(w) {
		// Timed run, untraced.
		cfg := *w.Cfg
		var elapsed time.Duration
		elapsed = TimeIt(func() { r.run(&cfg, q) })
		// Traced run through the scaled hierarchy.
		h := scaledHierarchy(w.DB.TotalResidues)
		cfg.Trace = h.Tracer()
		r.run(&cfg, q)
		rep := h.Report()
		results = append(results, row{rep.LLCMissRate, rep.TLBMissRate, rep.StalledFrac, elapsed})
	}
	t.AddRow("LLC miss rate (%)", pct(results[0].llc), pct(results[1].llc), pct(results[2].llc))
	t.AddRow("TLB miss rate (%)", pct(results[0].tlb), pct(results[1].tlb), pct(results[2].tlb))
	t.AddRow("stalled-cycle proxy (%)", pct(results[0].stall), pct(results[1].stall), pct(results[2].stall))
	t.AddRow("execution time (ms)", ms(results[0].elapsed), ms(results[1].elapsed), ms(results[2].elapsed))
	t.Note("paper: NCBI-db has much higher LLC/TLB miss rates and is slower than NCBI despite the database index")
	return t, nil
}

func pct(v float64) string            { return fmt.Sprintf("%.1f", 100*v) }
func ms(d time.Duration) string       { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }
func secs(d time.Duration) string     { return fmt.Sprintf("%.3f", d.Seconds()) }
func ratio(a, b time.Duration) string { return fmt.Sprintf("%.2fx", float64(a)/float64(b)) }

// Fig6 reproduces the pre-filter survival measurement (Fig 6): the
// percentage of hits that remain after hit pre-filtering, per query length,
// on the uniprot_sprot-like database.
func Fig6(s Scale) (*Table, error) {
	w, err := Uniprot(s)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig 6: percentage of hits remaining after pre-filtering (uniprot_sprot-like)",
		Columns: []string{"query length", "hits", "pairs after pre-filter", "remaining (%)"},
	}
	for _, name := range []string{"128", "256", "512"} {
		var hits, pairs int64
		for _, r := range core.New(w.Cfg, w.Index).SearchBatch(w.Queries[name], 1) {
			hits += r.Stats.Hits
			pairs += r.Stats.Pairs
		}
		t.AddRow(name, hits, pairs, pct(float64(pairs)/float64(hits)))
	}
	t.Note("paper: <5%% of hits remain on real databases; same pairing rule here (NCBI's: overlapping hits are ignored, pairs at W <= distance < 40)")
	return t, nil
}

// Fig7 reproduces the database length distributions (Fig 7).
func Fig7(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Fig 7: sequence length distributions",
		Columns: []string{"length bin", "uniprot-like (%)", "env_nr-like (%)"},
	}
	const binWidth, maxLen = 100, 1200
	profiles := []struct {
		prof  seqgen.Profile
		n     int
		stats seqgen.LengthStats
		bins  []int
	}{
		{prof: seqgen.UniprotProfile(), n: s.UniprotSeqs},
		{prof: seqgen.EnvNRProfile(), n: s.EnvNRSeqs},
	}
	for i := range profiles {
		g := seqgen.New(profiles[i].prof, s.Seed)
		seqs := g.Database(profiles[i].n)
		profiles[i].stats = seqgen.Summarize(seqs)
		_, counts := seqgen.Histogram(seqs, binWidth, maxLen)
		profiles[i].bins = counts
	}
	for b := 0; b < maxLen/binWidth; b++ {
		label := fmt.Sprintf("%d-%d", b*binWidth, (b+1)*binWidth)
		if b == maxLen/binWidth-1 {
			label = fmt.Sprintf(">=%d", b*binWidth)
		}
		t.AddRow(label,
			pct(float64(profiles[0].bins[b])/float64(profiles[0].n)),
			pct(float64(profiles[1].bins[b])/float64(profiles[1].n)))
	}
	t.Note("uniprot-like: median %d mean %.0f (paper: 292 / 355); env_nr-like: median %d mean %.0f (paper: 177 / 197)",
		profiles[0].stats.Median, profiles[0].stats.Mean,
		profiles[1].stats.Median, profiles[1].stats.Mean)
	return t, nil
}

// Fig8 reproduces the block-size sweep (Fig 8): execution time and LLC miss
// rate of NCBI-db and muBLASTP at index block sizes from 128KB to 4MB on
// the uniprot_sprot-like database. Block bytes are scaled to the database
// the same way the hierarchy is.
func Fig8(s Scale) (*Table, error) {
	w, err := Uniprot(s)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Fig 8: execution time and LLC miss rate vs index block size (uniprot_sprot-like, batch of " +
			fmt.Sprint(s.Batch) + " queries/length)",
		Columns: []string{"block size", "muBLASTP time (s)", "NCBI-db time (s)",
			"muBLASTP LLC miss (%)", "NCBI-db LLC miss (%)"},
	}
	blockBytes := []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20}
	// Scale block sizes the same factor as the database: the paper sweeps
	// 128KB-4MB against a 250MB database; we keep the sweep labels and scale
	// the actual residue counts so the blocks relate to our scaled LLC model
	// the way the paper's do to 30MB.
	dbBytes := w.DB.TotalResidues
	factor := float64(dbBytes) / float64(250<<20)
	if factor > 1 {
		factor = 1
	}
	queries := append(append(append([][]alphabet.Code{},
		w.Queries["128"]...), w.Queries["256"]...), w.Queries["512"]...)
	for _, bb := range blockBytes {
		residues := int64(float64(bb) * factor / 4)
		if residues < 1024 {
			residues = 1024
		}
		if err := w.Reindex(residues); err != nil {
			return nil, err
		}
		mu := core.New(w.Cfg, w.Index)
		db := baseline.NewDBIndexed(w.Cfg, w.Index)
		muTime := TimeIt(func() { mu.SearchBatch(queries, s.threads()) })
		dbTime := TimeIt(func() { db.SearchBatch(queries, s.threads()) })

		muLLC := traceLLC(w, func(cfg *search.Config) {
			core.New(cfg, w.Index).SearchBatch(w.Queries["256"][:1], 1)
		})
		dbLLC := traceLLC(w, func(cfg *search.Config) {
			baseline.NewDBIndexed(cfg, w.Index).Search(0, w.Queries["256"][0])
		})
		t.AddRow(sizeLabel(bb), secs(muTime), secs(dbTime), pct(muLLC), pct(dbLLC))
	}
	t.Note("paper: both systems are fastest near the b = LLC/(2t+1) block size; NCBI-db degrades much faster for large blocks")
	return t, nil
}

func traceLLC(w *Workload, run func(cfg *search.Config)) float64 {
	cfg := *w.Cfg
	h := scaledHierarchy(w.DB.TotalResidues)
	cfg.Trace = h.Tracer()
	run(&cfg)
	return h.Report().LLCMissRate
}

func sizeLabel(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	default:
		return fmt.Sprintf("%dKB", b>>10)
	}
}

// Fig9 reproduces the single-node engine comparison (Fig 9): batch
// execution times of NCBI, NCBI-db, and muBLASTP on both databases across
// the four query sets, with muBLASTP's speedups.
func Fig9(s Scale) (*Table, error) {
	t := &Table{
		Title: "Fig 9: multithreaded engine comparison (batch of " + fmt.Sprint(s.Batch) + " queries)",
		Columns: []string{"database", "queries", "NCBI (s)", "NCBI-db (s)", "muBLASTP (s)",
			"measured vs NCBI", "measured vs NCBI-db", "modeled vs NCBI-db"},
	}
	for _, build := range []func(Scale) (*Workload, error){Uniprot, EnvNR} {
		w, err := build(s)
		if err != nil {
			return nil, err
		}
		ncbi := baseline.NewQueryIndexed(w.Cfg, w.DB)
		ncbiDB := baseline.NewDBIndexed(w.Cfg, w.Index)
		mu := core.New(w.Cfg, w.Index)
		for _, name := range QuerySetNames {
			qs := w.Queries[name]
			tn := TimeIt(func() { ncbi.SearchBatch(qs, s.threads()) })
			td := TimeIt(func() { ncbiDB.SearchBatch(qs, s.threads()) })
			tm := TimeIt(func() { mu.SearchBatch(qs, s.threads()) })
			// Modeled times: the same sub-batch traced through the scaled
			// Haswell-shaped hierarchy. Wall time on the development host
			// cannot show the paper's DRAM-bound gap when the scaled
			// database fits in the host's (huge) LLC; the modeled times
			// project the access streams onto the paper's regime.
			sub := qs
			if len(sub) > 4 {
				sub = sub[:4]
			}
			md := modeledBatch(w, sub, func(cfg *search.Config) batchFn {
				e := baseline.NewDBIndexed(cfg, w.Index)
				return func(q [][]alphabet.Code) { e.SearchBatch(q, 1) }
			})
			mm := modeledBatch(w, sub, func(cfg *search.Config) batchFn {
				e := core.New(cfg, w.Index)
				return func(q [][]alphabet.Code) { e.SearchBatch(q, 1) }
			})
			t.AddRow(w.Name, name, secs(tn), secs(td), secs(tm),
				ratio(tn, tm), ratio(td, tm),
				fmt.Sprintf("%.2fx", md/mm))
		}
	}
	t.Note("measured: wall time on this host (db fits the host LLC, so locality gains barely register)")
	t.Note("modeled: trace-driven memory time on the scaled Haswell hierarchy — comparable only between the two db-indexed engines, whose work structure is identical; NCBI's streaming scan costs are dominated by instruction/bandwidth effects the latency model does not capture (DESIGN.md)")
	t.Note("paper: muBLASTP up to 5.1x over NCBI and 3.9x over NCBI-db; NCBI-db is not consistently faster than NCBI")
	return t, nil
}

type batchFn func(q [][]alphabet.Code)

// modeledBatch returns the modeled seconds (2.5GHz Haswell) for searching
// the sub-batch with the engine built by mk, traced through the scaled
// hierarchy.
func modeledBatch(w *Workload, sub [][]alphabet.Code, mk func(cfg *search.Config) batchFn) float64 {
	cfg := *w.Cfg
	h := scaledHierarchy(w.DB.TotalResidues)
	cfg.Trace = h.Tracer()
	mk(&cfg)(sub)
	return h.Report().ModeledSeconds(2.5)
}

// Fig10 reproduces the multi-node scaling comparison (Fig 10): execution
// time and speedup of muBLASTP-MPI vs mpiBLAST on the env_nr-like workload
// at 1-128 nodes. Per-cell compute costs are calibrated from real
// single-thread runs of the corresponding engines on this machine; the
// cluster itself is simulated (see internal/cluster and DESIGN.md).
func Fig10(s Scale) (*Table, error) {
	w, err := EnvNR(s)
	if err != nil {
		return nil, err
	}
	queries := w.Queries["mixed"]

	// Calibrate seconds-per-cell for both engines from measured
	// single-thread runs on this host.
	cells := float64(TotalQueryResidues(queries)) * float64(w.DB.TotalResidues)
	ncbiEng := baseline.NewQueryIndexed(w.Cfg, w.DB)
	muEng := core.New(w.Cfg, w.Index)
	tNCBI := TimeIt(func() { ncbiEng.SearchBatch(queries, 1) })
	tMuSerial := TimeIt(func() { muEng.SearchBatch(queries, 1) })
	p := cluster.DefaultCostParams()
	p.SecPerCellNCBI = tNCBI.Seconds() / cells
	p.SecPerCellMu = tMuSerial.Seconds() / cells

	// Measure intra-node threading efficiency of muBLASTP on this machine
	// when it has real parallelism; otherwise keep the default.
	threads := s.threads()
	if threads > 1 {
		tPar := TimeIt(func() { muEng.SearchBatch(queries, threads) })
		p.ThreadEff = tMuSerial.Seconds() / (float64(threads) * tPar.Seconds())
		if p.ThreadEff > 1 {
			p.ThreadEff = 1
		}
		if p.ThreadEff < 0.5 {
			p.ThreadEff = 0.5
		}
	}

	// Project to the paper's full env_nr scale: sequence lengths drawn from
	// the same distribution (env_nr has ~6M sequences; 2M keeps the
	// simulation fast while far exceeding any per-node cache), 128-query
	// batch.
	gLen := seqgen.New(seqgen.EnvNRProfile(), s.Seed+1)
	const fullSeqs = 2000000
	seqLens := make([]int, fullSeqs)
	for i := range seqLens {
		seqLens[i] = gLen.Length()
	}
	queryLens := make([]int, 128)
	var totalRes int64
	for _, l := range seqLens {
		totalRes += int64(l)
	}
	avgQ := 0
	for i := range queryLens {
		queryLens[i] = gLen.Length()
		avgQ += queryLens[i]
	}
	avgQ /= len(queryLens)

	// Tie the coordination constants to the calibrated compute scale: the
	// super node's per-(query, worker-result) merge cost is a small, fixed
	// fraction of one worker's per-query compute at 1 node. The fractions
	// are the model's free knobs (DESIGN.md); the *growth laws* — per-query
	// serialized merging scaling with worker count for mpiBLAST, one batch
	// merge for muBLASTP — are the paper's Section IV-D mechanics.
	perQueryPerProc := p.SecPerCellNCBI * float64(avgQ) * float64(totalRes) / 16
	p.MergePerResult = 1.2e-5 * perQueryPerProc
	p.BatchMergePerResult = p.MergePerResult / 10
	p.DispatchPerTask = p.MergePerResult / 10

	t := &Table{
		Title: "Fig 10: multi-node scaling, muBLASTP-MPI vs mpiBLAST (env_nr-like, simulated cluster, calibrated costs)",
		Columns: []string{"nodes", "mpiBLAST (s)", "muBLASTP (s)", "speedup",
			"mpiBLAST eff (%)", "muBLASTP eff (%)"},
	}
	nodeCounts := []int{1, 2, 4, 8, 16, 32, 64, 128}
	var mb1, mu1 float64
	for _, nodes := range nodeCounts {
		frag := contiguousResidues(seqLens, nodes*16)
		part := roundRobinResidues(seqLens, nodes)
		mb := cluster.SimulateMPIBlast(queryLens, frag, p)
		muM := cluster.SimulateMuBLASTP(queryLens, part, 16, p)
		if nodes == 1 {
			mb1, mu1 = mb.Total, muM.Total
		}
		t.AddRow(nodes,
			fmt.Sprintf("%.1f", mb.Total),
			fmt.Sprintf("%.1f", muM.Total),
			fmt.Sprintf("%.1fx", mb.Total/muM.Total),
			pct(mb1/(float64(nodes)*mb.Total)),
			pct(mu1/(float64(nodes)*muM.Total)))
	}
	t.Note("calibrated sec/cell: NCBI %.3g, muBLASTP %.3g; thread efficiency %.2f", p.SecPerCellNCBI, p.SecPerCellMu, p.ThreadEff)
	t.Note("paper: muBLASTP 88-92%% scaling efficiency vs mpiBLAST 31-57%%; 2.2-8.9x speedup at 128 nodes")
	return t, nil
}

func roundRobinResidues(seqLens []int, parts int) []int64 {
	sorted := append([]int(nil), seqLens...)
	slices.Sort(sorted)
	out := make([]int64, parts)
	for i, l := range sorted {
		out[i%parts] += int64(l)
	}
	return out
}

func contiguousResidues(seqLens []int, parts int) []int64 {
	out := make([]int64, parts)
	n := len(seqLens)
	for p := 0; p < parts; p++ {
		lo, hi := p*n/parts, (p+1)*n/parts
		for i := lo; i < hi; i++ {
			out[p] += int64(seqLens[i])
		}
	}
	return out
}

// IndexSize reproduces the Section III index accounting: the two-level
// index (exact-word positions, with neighbors enumerated per query from the
// enumerator's few KB of masks) vs the neighbor-expanded alternative.
func IndexSize(s Scale) (*Table, error) {
	w, err := Uniprot(s)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Section III: database index size, two-level vs neighbor-expanded (uniprot_sprot-like)",
		Columns: []string{"structure", "bytes", "relative"},
	}
	twoLevel := w.Index.SizeBytes() + w.Cfg.Neighbors.SizeBytes()
	expanded := w.Index.ExpandedSizeBytes()
	t.AddRow("two-level (positions + neighbor enumerator)", twoLevel, "1.00x")
	t.AddRow("neighbor-expanded positions", expanded, fmt.Sprintf("%.1fx", float64(expanded)/float64(twoLevel)))
	t.Note("positions: %d; avg neighbors/word drive the expansion factor", w.Index.NumPositions())
	return t, nil
}

// Verify reruns the Section V-E check at harness scale: all three engines
// produce identical results on every query set of both databases.
func Verify(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Section V-E: output verification across engines",
		Columns: []string{"database", "queries", "compared HSPs", "identical"},
	}
	for _, build := range []func(Scale) (*Workload, error){Uniprot, EnvNR} {
		w, err := build(s)
		if err != nil {
			return nil, err
		}
		for _, name := range QuerySetNames {
			qs := w.Queries[name]
			ncbi := baseline.NewQueryIndexed(w.Cfg, w.DB).SearchBatch(qs, s.threads())
			ncbiDB := baseline.NewDBIndexed(w.Cfg, w.Index).SearchBatch(qs, s.threads())
			mu := core.New(w.Cfg, w.Index).SearchBatch(qs, s.threads())
			hsps, ok := compareAll(ncbi, ncbiDB, mu)
			t.AddRow(w.Name, name, hsps, fmt.Sprint(ok))
		}
	}
	return t, nil
}

func compareAll(sets ...[]search.QueryResult) (int, bool) {
	total := 0
	ref := sets[0]
	for _, other := range sets[1:] {
		if len(other) != len(ref) {
			return total, false
		}
		for qi := range ref {
			if len(ref[qi].HSPs) != len(other[qi].HSPs) {
				return total, false
			}
			for j := range ref[qi].HSPs {
				a, b := ref[qi].HSPs[j], other[qi].HSPs[j]
				if a.Subject != b.Subject || a.Aln.Score != b.Aln.Score ||
					a.Aln.QStart != b.Aln.QStart || a.Aln.QEnd != b.Aln.QEnd ||
					a.Aln.SStart != b.Aln.SStart || a.Aln.SEnd != b.Aln.SEnd {
					return total, false
				}
			}
		}
	}
	for qi := range ref {
		total += len(ref[qi].HSPs)
	}
	return total, true
}

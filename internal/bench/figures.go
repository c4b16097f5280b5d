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

// traced runs each search with its memory accesses traced through a scaled
// hierarchy of its own and returns their reports.
func traced(w *Workload, runs ...func(cfg *search.Config)) []simcache.Report {
	reps := make([]simcache.Report, len(runs))
	for i, run := range runs {
		cfg := *w.Cfg
		h := scaledHierarchy(w.DB.TotalResidues)
		cfg.Trace = h.Tracer()
		run(&cfg)
		reps[i] = h.Report()
	}
	return reps
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
	runs := []func(cfg *search.Config){
		func(cfg *search.Config) { baseline.NewQueryIndexed(cfg, w.DB).Search(0, q) },
		func(cfg *search.Config) { baseline.NewDBIndexed(cfg, w.Index).Search(0, q) },
		func(cfg *search.Config) { core.New(cfg, w.Index).SearchBatch([][]alphabet.Code{q}, 1) },
	}
	var llc, tlb, stall [3]string
	for i, rep := range traced(w, runs...) {
		llc[i], tlb[i], stall[i] = pct(rep.LLCMissRate), pct(rep.TLBMissRate), pct(rep.StalledFrac)
	}
	tm := timeEngines(func() { runs[0](w.Cfg) }, func() { runs[1](w.Cfg) }, func() { runs[2](w.Cfg) })
	t.AddRow("LLC miss rate (%)", llc[0], llc[1], llc[2])
	t.AddRow("TLB miss rate (%)", tlb[0], tlb[1], tlb[2])
	t.AddRow("stalled-cycle proxy (%)", stall[0], stall[1], stall[2])
	t.AddRow("execution time (× NCBI; NCBI in ms)", ms(tm.Median(0)), tm.Ratio(1, 0).String(), tm.Ratio(2, 0).String())
	t.Note("time: per-round ratio to NCBI, median [min, max] over %d interleaved rounds", rounds)
	t.Note("paper: NCBI-db has much higher LLC/TLB miss rates and is slower than NCBI despite the database index")
	return t, nil
}

func pct(v float64) string        { return fmt.Sprintf("%.1f", 100*v) }
func ms(d time.Duration) string   { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }
func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

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
// rate of NCBI-db and muBLASTP at index block sizes from 1/8 to 4 times the
// size the workload is indexed at (Scale.blockResidues, the scaled Section
// V-B rule), on the uniprot_sprot-like database. Each size's time is a ratio
// to the rule size's, taken within each round; the LLC columns trace one
// 256-residue query.
func Fig8(s Scale) (*Table, error) {
	w, err := Uniprot(s)
	if err != nil {
		return nil, err
	}
	qs := w.Queries["128"]
	t := &Table{
		Title: "Fig 8: execution time and LLC miss rate vs index block size (uniprot_sprot-like, " +
			fmt.Sprint(len(qs)) + " queries of 128)",
		Columns: []string{"block (residues)", "× rule", "muBLASTP (s)", "muBLASTP time vs ×1", "NCBI-db time vs ×1",
			"muBLASTP LLC miss (%)", "NCBI-db LLC miss (%)"},
	}
	rule := s.blockResidues(w.DB.TotalResidues)
	mults := []float64{0.125, 0.25, 0.5, 1, 2, 4}
	const ref = 3        // the ×1 row
	var engines []func() // muBLASTP and NCBI-db at each size, in turn
	var llc []string
	for _, m := range mults {
		if err := w.Reindex(int64(float64(rule) * m)); err != nil {
			return nil, err
		}
		mu, db := core.New(w.Cfg, w.Index), baseline.NewDBIndexed(w.Cfg, w.Index)
		engines = append(engines, func() { mu.SearchBatch(qs, s.threads()) }, func() { db.SearchBatch(qs, s.threads()) })
		r := traced(w, func(cfg *search.Config) { core.New(cfg, w.Index).SearchBatch(w.Queries["256"][:1], 1) },
			func(cfg *search.Config) { baseline.NewDBIndexed(cfg, w.Index).Search(0, w.Queries["256"][0]) })
		llc = append(llc, pct(r[0].LLCMissRate), pct(r[1].LLCMissRate))
	}
	tm := timeEngines(engines...)
	for i, m := range mults {
		t.AddRow(int64(float64(rule)*m), fmt.Sprint(m), secs(tm.Median(2*i)),
			tm.Ratio(2*i, 2*ref).String(), tm.Ratio(2*i+1, 2*ref+1).String(), llc[2*i], llc[2*i+1])
	}
	t.Note("time vs ×1: per-round ratio to the same engine at the rule size, median [min, max] over %d interleaved rounds", rounds)
	t.Note("LLC miss: the first 256-residue query, traced through the scaled hierarchy")
	t.Note("paper: both systems are fastest near the b = LLC/(2t+1) block size; NCBI-db degrades much faster for large blocks")
	return t, nil
}

// Fig9 reproduces the single-node engine comparison (Fig 9): batch
// execution times of NCBI, NCBI-db, and muBLASTP on both databases across
// the four query sets, with muBLASTP's speedups.
func Fig9(s Scale) (*Table, error) {
	t := &Table{
		Title: "Fig 9: multithreaded engine comparison (batch of " + fmt.Sprint(s.Batch) + " queries)",
		Columns: []string{"database", "queries", "muBLASTP (s)",
			"measured vs NCBI", "measured vs NCBI-db", "NCBI-db time / NCBI", "modeled vs NCBI-db"},
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
			tm := timeEngines(
				func() { ncbi.SearchBatch(qs, s.threads()) },
				func() { ncbiDB.SearchBatch(qs, s.threads()) },
				func() { mu.SearchBatch(qs, s.threads()) })
			// Modeled times: the same sub-batch traced through the scaled
			// Haswell-shaped hierarchy. Wall time on the development host
			// cannot show the paper's DRAM-bound gap when the scaled
			// database fits in the host's (huge) LLC; the modeled times
			// project the access streams onto the paper's regime.
			sub := qs
			if len(sub) > 4 {
				sub = sub[:4]
			}
			// Modeled seconds on a 2.5GHz Haswell.
			r := traced(w, func(cfg *search.Config) { baseline.NewDBIndexed(cfg, w.Index).SearchBatch(sub, 1) },
				func(cfg *search.Config) { core.New(cfg, w.Index).SearchBatch(sub, 1) })
			t.AddRow(w.Name, name, secs(tm.Median(2)), tm.Ratio(0, 2).String(), tm.Ratio(1, 2).String(),
				tm.Ratio(1, 0).String(), fmt.Sprintf("%.2fx", r[0].ModeledSeconds(2.5)/r[1].ModeledSeconds(2.5)))
		}
	}
	t.Note("measured: per-round wall-time ratio on this host, median [min, max] over %d interleaved rounds (db fits the host LLC, so locality gains barely register)", rounds)
	t.Note("modeled: trace-driven memory time on the scaled Haswell hierarchy — comparable only between the two db-indexed engines, whose work structure is identical; NCBI's streaming scan costs are dominated by instruction/bandwidth effects the latency model does not capture (DESIGN.md)")
	t.Note("paper: muBLASTP up to 5.1x over NCBI and 3.9x over NCBI-db; NCBI-db is not consistently faster than NCBI")
	return t, nil
}

// Fig10 reproduces the multi-node scaling comparison (Fig 10): execution
// time and speedup of muBLASTP-MPI vs mpiBLAST on the env_nr-like workload
// at 1-128 nodes. The compute costs are calibrated from one interleaved
// comparison on this machine: NCBI's single-thread median is the model's one
// absolute scale, muBLASTP's cost a cell follows from the NCBI / muBLASTP
// ratio and its thread efficiency from the serial / parallel ratio, so the
// speedup column rests on paired ratios alone. The cluster itself is
// simulated (see internal/cluster and DESIGN.md).
func Fig10(s Scale) (*Table, error) {
	w, err := EnvNR(s)
	if err != nil {
		return nil, err
	}
	queries := w.Queries["mixed"]
	ncbiEng := baseline.NewQueryIndexed(w.Cfg, w.DB)
	muEng := core.New(w.Cfg, w.Index)
	threads := s.threads()
	engines := []func(){
		func() { ncbiEng.SearchBatch(queries, 1) },
		func() { muEng.SearchBatch(queries, 1) },
	}
	if threads > 1 { // intra-node efficiency needs real parallelism to measure
		engines = append(engines, func() { muEng.SearchBatch(queries, threads) })
	}
	tm := timeEngines(engines...)
	speed, par := tm.Ratio(0, 1), tm.Ratio(1, len(engines)-1) // par is 1 on one thread
	var queryResidues int64
	for _, q := range queries {
		queryResidues += int64(len(q))
	}
	p := cluster.DefaultCostParams()
	p.SecPerCellNCBI = tm.Median(0).Seconds() / (float64(queryResidues) * float64(w.DB.TotalResidues))

	// Project to the paper's full env_nr scale: sequence lengths drawn from
	// the same distribution (env_nr has ~6M sequences; 2M keeps the
	// simulation fast while far exceeding any per-node cache), 128-query
	// batch.
	gLen := seqgen.New(seqgen.EnvNRProfile(), s.Seed+1)
	seqLens := make([]int, 2000000)
	var totalRes int64
	for i := range seqLens {
		seqLens[i] = gLen.Length()
		totalRes += int64(seqLens[i])
	}
	queryLens := make([]int, 128)
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
	// at is the model at one NCBI / muBLASTP ratio and one serial / parallel
	// ratio; without threads to measure it keeps the default efficiency.
	at := func(speed, par float64) cluster.CostParams {
		q := p
		q.SecPerCellMu = p.SecPerCellNCBI / speed
		if threads > 1 {
			q.ThreadEff = min(max(par/float64(threads), 0.5), 1)
		}
		return q
	}
	mid, lo, hi := at(speed.Median, par.Median), at(speed.Min, par.Min), at(speed.Max, par.Max)

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
		mb := cluster.SimulateMPIBlast(queryLens, frag, mid)
		muM := cluster.SimulateMuBLASTP(queryLens, part, 16, mid)
		if nodes == 1 {
			mb1, mu1 = mb.Total, muM.Total
		}
		speedup := spread{Median: mb.Total / muM.Total,
			Min: mb.Total / cluster.SimulateMuBLASTP(queryLens, part, 16, lo).Total,
			Max: mb.Total / cluster.SimulateMuBLASTP(queryLens, part, 16, hi).Total}
		t.AddRow(nodes,
			fmt.Sprintf("%.1f", mb.Total),
			fmt.Sprintf("%.1f", muM.Total),
			speedup.String(),
			pct(mb1/(float64(nodes)*mb.Total)),
			pct(mu1/(float64(nodes)*muM.Total)))
	}
	t.Note("scale: NCBI single-thread median %.3f s (%.3g s/cell); NCBI / muBLASTP single-thread %s; muBLASTP 1 / %d threads %s, thread efficiency %.2f (clamped to [0.5, 1])",
		tm.Median(0).Seconds(), p.SecPerCellNCBI, speed, threads, par, mid.ThreadEff)
	t.Note("speedup: the model at the median ratios [at both ratios' low ends, at both high ends], over %d interleaved rounds", rounds)
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

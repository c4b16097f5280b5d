package bench

import (
	"fmt"
	"math"
	"sort"

	"repro/blast"
	"repro/internal/alphabet"
	"repro/internal/gapped"
	"repro/internal/matrix"
	"repro/internal/seqgen"
	"repro/internal/stats"
	"repro/internal/sw"
)

// The sensitivity experiment is the ruler for any change that trades hits
// for speed (a pairing rule, a seed model, a coarser filter): on a database
// whose homologies are known because the generator planted them, it reports
// sensitivity — which truly related (query, subject) pairs are found, judged
// by the optimal Smith–Waterman score — beside selectivity, the pairs and
// ungapped extensions spent finding them. One build measures one row; two
// rules are compared by running it on two builds.

// sensitivityResidues and sensitivityBlock are the benchmark's batch_mixed
// database and index block (benchmarks/e2e: batchDBResidues, blockResidues),
// so that the first world below is that workload residue for residue and its
// "reported" column is the benchmark's blast.hits_reported.
const (
	sensitivityResidues = 7_100_000
	sensitivityBlock    = 131072
	// minSharedCells is how many query positions must descend from the same
	// planted residues as positions of a subject for the pair to count as
	// related: a word hit and a half, below which no search could tell the
	// relation from chance.
	minSharedCells = 12
)

// SensitivityWorld names one generated database and query set.
type SensitivityWorld struct {
	Name         string
	HomologFrac  float64 // seqgen.Profile.HomologFrac
	MutationRate float64 // seqgen.Profile.MutationRate: per-residue substitution rate of planted copies
	Queries      int     // ladder queries at the uniprot length quantiles
}

// SensitivityRow is what one world measured on this build.
type SensitivityRow struct {
	World   SensitivityWorld
	Related int // (query, subject) pairs sharing >= minSharedCells planted cells

	// Of the related pairs, those whose optimal local alignment has E <= 10
	// (would be reported by an exhaustive search at the default cutoff) and
	// E <= 1e-3 (unambiguous homologs), and how many of each the engine
	// reported.
	Gold10, Found10 int
	Gold3, Found3   int
	// MissedStrong lists the SW E-values of the E <= 1e-3 pairs not reported.
	MissedStrong []float64

	// Reported hits (HSPs), split by whether their subject is related to the
	// query, with the quartiles of the reported E-values of the chance ones.
	Reported, Planted, Chance int
	ChanceE                   [3]float64

	Pairs, Extensions int64
}

// SensitivityWorlds returns the experiment's worlds at scale s: the
// benchmark's batch_mixed inputs, then four databases in which nine of ten
// sequences carry a planted segment, at substitution rates that walk the
// planted copies from ~62% identity down into the twilight zone (~25%).
func SensitivityWorlds(s Scale) []SensitivityWorld {
	up := seqgen.UniprotProfile()
	worlds := []SensitivityWorld{{"batch_mixed", up.HomologFrac, up.MutationRate, 16}}
	for _, rate := range []float64{0.40, 0.65, 0.72, 0.80} {
		worlds = append(worlds, SensitivityWorld{fmt.Sprintf("planted 0.9, mutated %.2f", rate), 0.9, rate, 8 * s.Batch})
	}
	return worlds
}

// Sensitivity runs every world of SensitivityWorlds and renders the rows.
func Sensitivity(s Scale) (*Table, error) {
	t := &Table{
		Title: "Sensitivity at a given selectivity: planted homologs found vs pairs extended",
		Columns: []string{"world", "queries", "related", "SW E<=10 found/of", "SW E<=1e-3 found/of",
			"reported", "planted", "chance", "chance E q1/med/q3", "pairs", "extensions"},
	}
	var found10, gold10 int
	for i, w := range SensitivityWorlds(s) {
		r, err := MeasureSensitivity(w, s)
		if err != nil {
			return nil, err
		}
		t.AddRow(w.Name, w.Queries, r.Related,
			fmt.Sprintf("%d/%d", r.Found10, r.Gold10), fmt.Sprintf("%d/%d", r.Found3, r.Gold3),
			r.Reported, r.Planted, r.Chance,
			fmt.Sprintf("%.2g/%.2g/%.2g", r.ChanceE[0], r.ChanceE[1], r.ChanceE[2]),
			r.Pairs, r.Extensions)
		for _, e := range r.MissedStrong {
			t.Note("%s: a related pair with SW E = %.2g was not reported", w.Name, e)
		}
		if i > 0 { // the planted worlds
			found10, gold10 = found10+r.Found10, gold10+r.Gold10
		}
	}
	if gold10 > 0 {
		t.Note("pooled recall at SW E<=10 over the planted worlds: %d/%d = %.4f", found10, gold10, float64(found10)/float64(gold10))
	}
	t.Note("database %d residues, seed %d; related = (query, subject) sharing >= %d planted cells (union-find over seqgen's Plants); gold standard = sw.Score under BLOSUM62 11/1 with the engine's E-value formula; planted/chance split the reported HSPs by their subject",
		sensitivityDBResidues(s), s.Seed, minSharedCells)
	return t, nil
}

// sensitivityDBResidues scales the database with Scale.UniprotSeqs: the
// benchmark's 7.1 M residues at the default scale, 355 000 at the small one.
func sensitivityDBResidues(s Scale) int {
	return sensitivityResidues * s.UniprotSeqs / DefaultScale().UniprotSeqs
}

// MeasureSensitivity generates one world, searches it with this build's
// engine at default parameters, and scores the outcome against the planted
// ground truth.
func MeasureSensitivity(w SensitivityWorld, s Scale) (SensitivityRow, error) {
	row := SensitivityRow{World: w}
	prof := seqgen.UniprotProfile()
	prof.HomologFrac, prof.MutationRate = w.HomologFrac, w.MutationRate
	g := seqgen.New(prof, s.Seed)
	db, plants := sizedDatabase(g, sensitivityDBResidues(s))
	queries := make([][]alphabet.Code, w.Queries)
	origins := make([]seqgen.Origin, w.Queries)
	for i, l := range uniprotLadder(w.Queries) {
		queries[i] = g.Queries(db, 1, l)[0]
		origins[i] = g.Origins[0]
	}
	related := relatedSubjects(db, plants, origins)

	seqs := make([]blast.Sequence, len(db))
	byName := make(map[string]int, len(db))
	var residues int64
	for i, c := range db {
		seqs[i] = blast.Sequence{Name: fmt.Sprintf("s%06d", i), Residues: alphabet.String(c)}
		byName[seqs[i].Name] = i
		residues += int64(len(c))
	}
	p := blast.DefaultParams()
	p.BlockResidues = sensitivityBlock
	p.Threads = s.threads()
	bdb, err := blast.NewDatabase(seqs, p)
	if err != nil {
		return row, err
	}
	qs := make([]string, len(queries))
	for i, q := range queries {
		qs[i] = alphabet.String(q)
	}
	results, err := bdb.SearchBatch(qs)
	if err != nil {
		return row, err
	}

	var chanceE []float64
	reported := make([]map[int]bool, len(queries))
	for qi, r := range results {
		row.Pairs += r.Stats.Pairs
		row.Extensions += r.Stats.Extensions
		reported[qi] = map[int]bool{}
		for _, h := range r.Hits {
			subject := byName[h.SubjectName]
			reported[qi][subject] = true
			row.Reported++
			if related[qi][subject] {
				row.Planted++
			} else {
				row.Chance++
				chanceE = append(chanceE, h.EValue)
			}
		}
	}
	sort.Float64s(chanceE)
	for i, q := range []float64{0.25, 0.5, 0.75} {
		if len(chanceE) > 0 {
			row.ChanceE[i] = chanceE[int(q*float64(len(chanceE)-1)+0.5)]
		}
	}

	// The engine's gap penalties: NCBI's 11/1, which blast.Params leaves to
	// search.NewConfig.
	gp := gapped.DefaultParams()
	ka, err := stats.GappedParams(matrix.Blosum62, gp.GapOpen, gp.GapExtend)
	if err != nil {
		return row, err
	}
	for qi, q := range queries {
		effQ, effDB := ka.EffectiveLengths(int64(len(q)), residues, int64(len(db)))
		subjects := make([]int, 0, len(related[qi]))
		for subject := range related[qi] {
			subjects = append(subjects, subject)
		}
		sort.Ints(subjects) // MissedStrong in a reproducible order
		for _, subject := range subjects {
			row.Related++
			e := ka.EValue(sw.Score(matrix.Blosum62, q, db[subject], gp.GapOpen, gp.GapExtend), effQ, effDB)
			if e > 10 {
				continue
			}
			row.Gold10++
			if reported[qi][subject] {
				row.Found10++
			}
			if e <= 1e-3 {
				row.Gold3++
				if reported[qi][subject] {
					row.Found3++
				} else {
					row.MissedStrong = append(row.MissedStrong, e)
				}
			}
		}
	}
	return row, nil
}

// sizedDatabase makes the draws of the benchmark's genDB
// (benchmarks/e2e/inputs.go) in the same order — sequences until the total
// would pass residues, then one background sequence of exactly the remainder
// — and returns the generator's plants among the sequences kept, renumbered
// to the returned slice.
func sizedDatabase(g *seqgen.Generator, residues int) ([][]alphabet.Code, []seqgen.Plant) {
	var db [][]alphabet.Code
	var plants []seqgen.Plant
	total := 0
	for {
		base, full := len(db), false
		for _, c := range g.Database(max(16, (residues-total)/250)) {
			if full = total+len(c) > residues-g.Prof.MinLen; full {
				break
			}
			db = append(db, c)
			total += len(c)
		}
		for _, p := range g.Plants {
			if base+p.Dst < len(db) {
				p.Dst, p.Donor = base+p.Dst, base+p.Donor
				plants = append(plants, p)
			}
		}
		if full {
			return append(db, g.Sequence(residues-total)), plants
		}
	}
}

// uniprotLadder returns n query lengths at the evenly spaced quantiles of the
// uniprot length distribution, capped at 2000 — the benchmark's ladder, so a
// set of queries has the same total length for every seed.
func uniprotLadder(n int) []int {
	p := seqgen.UniprotProfile()
	out := make([]int, n)
	for i := range out {
		z := math.Sqrt2 * math.Erfinv(2*(float64(i)+0.5)/float64(n)-1)
		out[i] = min(max(int(math.Exp(p.LogMu+p.LogSigma*z)), p.MinLen), 2000)
	}
	return out
}

// relatedSubjects turns the generator's ground truth into, per query, the
// set of subjects related to it. Every residue of the database is a cell; a
// plant joins each copied cell to the cell it was copied from (copies of
// copies chain, so relation is transitive the way descent is); a query
// position is the cell it was cut from. A subject is related to a query when
// at least minSharedCells query positions have a cell of their class on it.
func relatedSubjects(db [][]alphabet.Code, plants []seqgen.Plant, origins []seqgen.Origin) []map[int]bool {
	start := make([]int32, len(db)+1)
	for i, c := range db {
		start[i+1] = start[i] + int32(len(c))
	}
	parent := make([]int32, start[len(db)])
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(c int32) int32 {
		for parent[c] != c {
			parent[c] = parent[parent[c]]
			c = parent[c]
		}
		return c
	}
	for _, p := range plants {
		for k := 0; k < p.Len; k++ {
			a, b := find(start[p.Dst]+int32(p.Pos+k)), find(start[p.Donor]+int32(p.Src+k))
			parent[a] = b
		}
	}
	// Members of every class with more than one cell, by root: only planted
	// cells can be in one.
	members := map[int32][]int32{}
	seen := make([]bool, len(parent))
	for _, p := range plants {
		for k := 0; k < p.Len; k++ {
			for _, c := range [2]int32{start[p.Dst] + int32(p.Pos+k), start[p.Donor] + int32(p.Src+k)} {
				if !seen[c] {
					seen[c] = true
					root := find(c)
					members[root] = append(members[root], c)
				}
			}
		}
	}
	seqOf := func(c int32) int { return sort.Search(len(db), func(i int) bool { return start[i+1] > c }) }

	related := make([]map[int]bool, len(origins))
	for qi, o := range origins {
		related[qi] = map[int]bool{}
		if o.Seq < 0 {
			continue // cut from background: related to nothing
		}
		shared := map[int]int{o.Seq: o.Len}
		for k := 0; k < o.Len; k++ {
			onThisPosition := map[int]bool{o.Seq: true}
			for _, c := range members[find(start[o.Seq]+int32(o.Start+k))] {
				if subject := seqOf(c); !onThisPosition[subject] {
					onThisPosition[subject] = true
					shared[subject]++
				}
			}
		}
		for subject, n := range shared {
			if n >= minSharedCells {
				related[qi][subject] = true
			}
		}
	}
	return related
}

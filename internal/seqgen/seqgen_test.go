package seqgen

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/internal/alphabet"
)

func TestDeterministic(t *testing.T) {
	a := New(UniprotProfile(), 42).Database(50)
	b := New(UniprotProfile(), 42).Database(50)
	if len(a) != len(b) {
		t.Fatal("different counts")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("seq %d length differs", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("seq %d differs at %d", i, j)
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(UniprotProfile(), 1).Sequence(100)
	b := New(UniprotProfile(), 2).Sequence(100)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical sequences")
	}
}

func TestLengthDistributionMatchesProfile(t *testing.T) {
	cases := []struct {
		prof   Profile
		median float64
		mean   float64
	}{
		{UniprotProfile(), 292, 355},
		{EnvNRProfile(), 177, 197},
	}
	for _, c := range cases {
		g := New(c.prof, 7)
		seqs := g.Database(20000)
		st := Summarize(seqs)
		if math.Abs(float64(st.Median)-c.median)/c.median > 0.08 {
			t.Errorf("%s: median %d, want ~%g", c.prof.Name, st.Median, c.median)
		}
		if math.Abs(st.Mean-c.mean)/c.mean > 0.08 {
			t.Errorf("%s: mean %g, want ~%g", c.prof.Name, st.Mean, c.mean)
		}
		if st.Min < c.prof.MinLen || st.Max > c.prof.MaxLen {
			t.Errorf("%s: lengths [%d,%d] outside clamp [%d,%d]",
				c.prof.Name, st.Min, st.Max, c.prof.MinLen, c.prof.MaxLen)
		}
	}
}

func TestResiduesAreStandard(t *testing.T) {
	g := New(EnvNRProfile(), 3)
	for _, s := range g.Database(20) {
		for _, c := range s {
			if c >= 20 {
				t.Fatalf("generated non-standard residue code %d", c)
			}
		}
	}
}

func TestResidueCompositionRoughlyRobinson(t *testing.T) {
	g := New(UniprotProfile(), 11)
	var counts [20]int
	total := 0
	for i := 0; i < 200; i++ {
		for _, c := range g.Sequence(500) {
			counts[c]++
			total++
		}
	}
	// Leucine (~9%) should be the most common residue; Trp (~1.3%) rare.
	leu := float64(counts[alphabet.CodeL]) / float64(total)
	trp := float64(counts[alphabet.CodeW]) / float64(total)
	if leu < 0.07 || leu > 0.11 {
		t.Errorf("Leu frequency %g, want ~0.09", leu)
	}
	if trp < 0.008 || trp > 0.02 {
		t.Errorf("Trp frequency %g, want ~0.013", trp)
	}
}

func TestQueriesHaveRequestedLength(t *testing.T) {
	g := New(UniprotProfile(), 5)
	db := g.Database(200)
	for _, l := range []int{128, 256, 512} {
		qs := g.Queries(db, 16, l)
		if len(qs) != 16 {
			t.Fatalf("got %d queries", len(qs))
		}
		for _, q := range qs {
			if len(q) != l {
				t.Errorf("query length %d, want %d", len(q), l)
			}
		}
	}
}

func TestMixedQueriesFollowDistribution(t *testing.T) {
	g := New(EnvNRProfile(), 5)
	db := g.Database(500)
	qs := g.Queries(db, 400, 0)
	st := Summarize(qs)
	if math.Abs(float64(st.Median)-177)/177 > 0.25 {
		t.Errorf("mixed query median %d, want ~177", st.Median)
	}
}

func TestQueriesAreDatabaseDerived(t *testing.T) {
	// Queries sampled from the database should align well to it: at least
	// ~80% of residues of some query window should match some db sequence.
	// We verify cheaply: a query of length 128 mutated at 10% should share
	// long exact 3-mers with its source. Count matching words in db.
	g := New(UniprotProfile(), 9)
	db := g.Database(100)
	q := g.Queries(db, 1, 128)[0]
	words := map[alphabet.Word]bool{}
	alphabet.Words(q, func(_ int, w alphabet.Word) { words[w] = true })
	found := 0
	for _, s := range db {
		alphabet.Words(s, func(_ int, w alphabet.Word) {
			if words[w] {
				found++
			}
		})
	}
	if found < 20 {
		t.Errorf("query shares only %d words with database; expected many (planted origin)", found)
	}
}

func TestHomologPlantingIncreasesWordSharing(t *testing.T) {
	with := UniprotProfile()
	without := UniprotProfile()
	without.HomologFrac = 0
	shared := func(p Profile) int {
		g := New(p, 13)
		db := g.Database(60)
		// Count word collisions between first sequence and the rest.
		words := map[alphabet.Word]bool{}
		n := 0
		for i, s := range db {
			alphabet.Words(s, func(_ int, w alphabet.Word) {
				if i == 0 {
					words[w] = true
				} else if words[w] {
					n++
				}
			})
		}
		return n
	}
	// Not a strict guarantee per-seed, but with 60 sequences and 30%
	// planting the difference is overwhelming in expectation.
	if shared(with) <= shared(without)/2 {
		t.Logf("with=%d without=%d", shared(with), shared(without))
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil)
	if st.Count != 0 || st.Total != 0 {
		t.Errorf("Summarize(nil) = %+v", st)
	}
}

func TestHistogram(t *testing.T) {
	seqs := [][]alphabet.Code{
		make([]alphabet.Code, 50),
		make([]alphabet.Code, 150),
		make([]alphabet.Code, 150),
		make([]alphabet.Code, 9999),
	}
	bounds, counts := Histogram(seqs, 100, 1000)
	if len(bounds) != 10 {
		t.Fatalf("got %d bins", len(bounds))
	}
	if counts[0] != 1 || counts[1] != 2 {
		t.Errorf("counts[0..1] = %d,%d want 1,2", counts[0], counts[1])
	}
	if counts[9] != 1 {
		t.Errorf("overflow bin = %d, want 1", counts[9])
	}
}

func TestSampleWindowFallback(t *testing.T) {
	g := New(UniprotProfile(), 21)
	// All db sequences shorter than requested query: falls back to random.
	db := [][]alphabet.Code{g.Sequence(50)}
	qs := g.Queries(db, 3, 512)
	for _, q := range qs {
		if len(q) != 512 {
			t.Errorf("fallback query length %d", len(q))
		}
	}
}

// identity is the fraction of positions at which a and b agree.
func identity(a, b []alphabet.Code) float64 {
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(len(a))
}

// TestPlantsAndOriginsDescribeTheResidues checks the generator's ground
// truth against what it generated: every recorded plant is a window of its
// donor copied at about 1-MutationRate identity into a later sequence, every
// recorded origin is the database window its query was cut from, and a query
// synthesized from background says so.
func TestPlantsAndOriginsDescribeTheResidues(t *testing.T) {
	prof := UniprotProfile()
	prof.HomologFrac = 0.9
	g := New(prof, 33)
	db := g.Database(400)
	if n := len(g.Plants); n < 300 || n > 399 {
		t.Fatalf("%d plants recorded for 400 sequences at HomologFrac 0.9", n)
	}
	sum := 0.0
	for _, p := range g.Plants {
		if p.Donor >= p.Dst || p.Len < 20 || p.Pos+p.Len > len(db[p.Dst]) || p.Src+p.Len > len(db[p.Donor]) {
			t.Fatalf("plant %+v does not fit its sequences (%d, %d residues)", p, len(db[p.Dst]), len(db[p.Donor]))
		}
		sum += identity(db[p.Dst][p.Pos:p.Pos+p.Len], db[p.Donor][p.Src:p.Src+p.Len])
	}
	// A mutated position redraws its residue, which agrees by chance ~6% of
	// the time: expected identity 1 - 0.4*0.94 = 0.62 (background alone: 0.06).
	if mean := sum / float64(len(g.Plants)); mean < 0.57 || mean > 0.67 {
		t.Errorf("planted windows agree with their donors at %.3f on average, want ~0.62", mean)
	}

	queries := g.Queries(db, 20, 100)
	if len(g.Origins) != len(queries) {
		t.Fatalf("%d origins for %d queries", len(g.Origins), len(queries))
	}
	for i, o := range g.Origins {
		if o.Seq < 0 || o.Len != 100 {
			t.Fatalf("query %d: origin %+v", i, o)
		}
		if id := identity(queries[i], db[o.Seq][o.Start:o.Start+o.Len]); id < 0.8 {
			t.Errorf("query %d agrees with its recorded origin at %.2f, want ~0.9", i, id)
		}
	}
	g.Queries(db[:1], 1, 6000) // longer than any sequence: background
	if o := g.Origins[0]; len(g.Origins) != 1 || o.Seq != -1 || o.Len != 6000 {
		t.Errorf("origins of a synthesized query: %+v", g.Origins)
	}
}

// TestGeneratedResiduesPinned pins the residues of one seed to the digest
// they had before Plants and Origins existed: the recording may not draw
// from the rng, or every golden, benchmark input and recorded experiment
// that depends on generated residues silently becomes a different one.
func TestGeneratedResiduesPinned(t *testing.T) {
	g := New(UniprotProfile(), 1)
	h := sha256.New()
	db := g.Database(300)
	for _, s := range db {
		h.Write([]byte(alphabet.String(s)))
		h.Write([]byte{0})
	}
	for _, n := range []struct{ count, length int }{{6, 128}, {6, 0}, {2, 6000}} {
		for _, q := range g.Queries(db, n.count, n.length) {
			h.Write([]byte(alphabet.String(q)))
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != "edda9ef1e5532b43" {
		t.Errorf("digest %s, want edda9ef1e5532b43 (the parent of the PR that added Plants)", got)
	}
}

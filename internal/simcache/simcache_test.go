package simcache

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/dbase"
	"repro/internal/dbindex"
	"repro/internal/matrix"
	"repro/internal/neighbor"
	"repro/internal/search"
	"repro/internal/seqgen"
)

func TestCacheHitsOnRepeat(t *testing.T) {
	c := NewCache(32<<10, 8)
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("repeat access missed")
	}
	// Same line, different byte.
	if !c.Access(0x103F) {
		t.Error("same-line access missed")
	}
	// Next line misses.
	if c.Access(0x1040) {
		t.Error("next-line access hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 8-way set: 9 distinct lines mapping to the same set evict the oldest.
	c := NewCache(32<<10, 8)
	sets := uint64(32 << 10 / (8 * 64))
	for i := uint64(0); i < 9; i++ {
		c.Access(i * sets * 64) // same set index every time
	}
	// Line 0 was the LRU victim; it must miss now.
	if c.Access(0) {
		t.Error("evicted line still resident")
	}
	// Line 8 (most recent) must hit.
	if !c.Access(8 * sets * 64) {
		t.Error("recent line evicted")
	}
}

func TestCacheCapacityWorkingSet(t *testing.T) {
	// A working set that fits: second pass all hits. One that doesn't: misses.
	small := NewCache(32<<10, 8)
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 16<<10; a += 64 {
			small.Access(a)
		}
	}
	// First pass all misses (256), second all hits.
	if small.Misses != 256 {
		t.Errorf("fitting set: %d misses, want 256", small.Misses)
	}
	big := NewCache(32<<10, 8)
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 64<<10; a += 64 {
			big.Access(a)
		}
	}
	if big.MissRate() < 0.9 {
		t.Errorf("thrashing set miss rate %.2f, want ~1", big.MissRate())
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(4)
	if tlb.Access(0) {
		t.Error("cold TLB hit")
	}
	if !tlb.Access(4095) {
		t.Error("same page missed")
	}
	for p := uint64(1); p <= 4; p++ {
		tlb.Access(p << 12)
	}
	if tlb.Access(0) {
		t.Error("evicted page still resident")
	}
}

func TestHierarchyInclusionOfCounts(t *testing.T) {
	h := NewHierarchy(32<<10, 256<<10, 4<<20, 64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Access(0, int64(rng.Intn(8<<20)))
	}
	// Every L2 access is an L1 miss, every LLC access an L2 miss.
	if h.L2.Accesses != h.L1.Misses {
		t.Errorf("L2 accesses %d != L1 misses %d", h.L2.Accesses, h.L1.Misses)
	}
	if h.LLC.Accesses != h.L2.Misses {
		t.Errorf("LLC accesses %d != L2 misses %d", h.LLC.Accesses, h.L2.Misses)
	}
	r := h.Report()
	if r.StalledFrac <= 0 || r.StalledFrac >= 1 {
		t.Errorf("StalledFrac = %g", r.StalledFrac)
	}
}

func TestSpacesDoNotAlias(t *testing.T) {
	h := NewHaswell()
	h.Access(0, 0)
	h.Access(1, 0)
	if h.L1.Misses != 2 {
		t.Errorf("accesses to distinct spaces aliased: %d misses", h.L1.Misses)
	}
}

func TestSequentialBeatsRandom(t *testing.T) {
	seqH := NewHierarchy(32<<10, 256<<10, 1<<20, 64)
	for i := int64(0); i < 1<<20; i++ {
		seqH.Access(0, i)
	}
	rndH := NewHierarchy(32<<10, 256<<10, 1<<20, 64)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1<<20; i++ {
		rndH.Access(0, int64(rng.Intn(64<<20)))
	}
	if seqH.Report().LLCMissRate >= rndH.Report().LLCMissRate && rndH.LLC.Accesses > 0 {
		t.Errorf("sequential LLC miss rate %.3f not below random %.3f",
			seqH.Report().LLCMissRate, rndH.Report().LLCMissRate)
	}
	if seqH.Report().TLBMissRate >= rndH.Report().TLBMissRate {
		t.Errorf("sequential TLB miss rate %.4f not below random %.4f",
			seqH.Report().TLBMissRate, rndH.Report().TLBMissRate)
	}
}

// TestEnginesTraceIntoSimulator is the Fig 2 mechanism end to end: the
// db-indexed interleaved engine must show a higher LLC miss rate than the
// query-indexed engine on the same workload, and muBLASTP must undercut the
// db-indexed baseline.
func TestEnginesTraceIntoSimulator(t *testing.T) {
	nbr := neighbor.New(matrix.Blosum62, neighbor.DefaultThreshold)
	cfg, err := search.NewConfig(matrix.Blosum62, nbr)
	if err != nil {
		t.Fatal(err)
	}
	g := seqgen.New(seqgen.EnvNRProfile(), 5)
	db := dbase.New(g.Database(600))
	ix, err := dbindex.Build(db, nbr, 32768)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, 0)
	_ = seqs
	qs := g.Queries(dbSeqs(db), 1, 512)

	// Use a scaled-down hierarchy so the scaled-down workload exercises it
	// the way the real workload exercises the real LLC.
	run := func(attach func(*search.Config) func() search.QueryResult) Report {
		c := *cfg
		h := NewHierarchy(16<<10, 128<<10, 1<<20, 64)
		c.Trace = h.Tracer()
		attachFn := attach(&c)
		attachFn()
		return h.Report()
	}
	qiRep := run(func(c *search.Config) func() search.QueryResult {
		e := baseline.NewQueryIndexed(c, db)
		return func() search.QueryResult { return e.Search(0, qs[0]) }
	})
	dbRep := run(func(c *search.Config) func() search.QueryResult {
		e := baseline.NewDBIndexed(c, ix)
		return func() search.QueryResult { return e.Search(0, qs[0]) }
	})

	if qiRep.Accesses == 0 || dbRep.Accesses == 0 {
		t.Fatal("engines produced no trace")
	}
	if dbRep.LLCMissRate <= qiRep.LLCMissRate {
		t.Errorf("Fig 2 inversion: NCBI-db LLC miss %.4f <= NCBI %.4f",
			dbRep.LLCMissRate, qiRep.LLCMissRate)
	}
	if dbRep.TLBMissRate <= qiRep.TLBMissRate {
		t.Errorf("Fig 2 inversion: NCBI-db TLB miss %.5f <= NCBI %.5f",
			dbRep.TLBMissRate, qiRep.TLBMissRate)
	}
}

func dbSeqs(db *dbase.DB) [][]byte {
	out := make([][]byte, db.NumSeqs())
	for i := range db.Seqs {
		out[i] = db.Seqs[i].Data
	}
	return out
}

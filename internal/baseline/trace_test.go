package baseline

import (
	"testing"

	"repro/internal/search"
)

// TestTraceEmitsAllSpaces verifies the cache-simulation instrumentation:
// each engine must report accesses for the spaces its pipeline touches, and
// tracing must not change results.
func TestTraceEmitsAllSpaces(t *testing.T) {
	cfg, db, ix, queries := testWorld(t, 80, 1, 256, 8192)
	q := queries[0]

	type spaceCount [search.NumSpaces]int64
	run := func(attach func(c *search.Config) func() search.QueryResult) (spaceCount, search.QueryResult) {
		var counts spaceCount
		c := *cfg
		c.Trace = func(space uint8, offset int64) {
			if int(space) >= search.NumSpaces {
				t.Fatalf("engine traced unknown space %d", space)
			}
			if offset < 0 {
				t.Fatalf("negative trace offset %d in space %d", offset, space)
			}
			counts[space]++
		}
		res := attach(&c)()
		return counts, res
	}

	// Untraced references.
	refQI := NewQueryIndexed(cfg, db).Search(0, q)
	refDB := NewDBIndexed(cfg, ix).Search(0, q)

	qiCounts, qiRes := run(func(c *search.Config) func() search.QueryResult {
		e := NewQueryIndexed(c, db)
		return func() search.QueryResult { return e.Search(0, q) }
	})
	dbCounts, dbRes := run(func(c *search.Config) func() search.QueryResult {
		e := NewDBIndexed(c, ix)
		return func() search.QueryResult { return e.Search(0, q) }
	})

	// Query-indexed: index, last-hit and subject accesses; no hit buffer.
	for _, sp := range []int{search.SpaceIndex, search.SpaceLastHit, search.SpaceSubject} {
		if qiCounts[sp] == 0 {
			t.Errorf("QueryIndexed traced no accesses for space %d", sp)
		}
	}
	if qiCounts[search.SpaceHitBuf] != 0 {
		t.Errorf("QueryIndexed traced %d hit-buffer accesses", qiCounts[search.SpaceHitBuf])
	}
	for _, sp := range []int{search.SpaceIndex, search.SpaceLastHit, search.SpaceSubject} {
		if dbCounts[sp] == 0 {
			t.Errorf("DBIndexed traced no accesses for space %d", sp)
		}
	}
	// Index accesses per hit are equal across the two engines (identical
	// hit sets).
	if qiCounts[search.SpaceIndex] != dbCounts[search.SpaceIndex] {
		t.Errorf("index access counts differ: %d vs %d", qiCounts[search.SpaceIndex], dbCounts[search.SpaceIndex])
	}

	// Tracing must not perturb results.
	requireSameResult(t, "traced QI", 0, refQI, qiRes)
	requireSameResult(t, "traced DB", 0, refDB, dbRes)
}

// TestStampedDiagsLazyReset exercises the epoch machinery including the
// wrap-around path.
func TestStampedDiagsLazyReset(t *testing.T) {
	var sd StampedDiags
	sd.Reset(4)
	d := sd.Get(2)
	d.LastPos = 42
	if sd.Get(2).LastPos != 42 {
		t.Error("state lost within epoch")
	}
	sd.Reset(4)
	if sd.Get(2).LastPos != -1 {
		t.Error("state not reset across epochs")
	}
	// Grow.
	sd.Reset(100)
	for i := 0; i < 100; i++ {
		if sd.Get(i).LastPos != -1 {
			t.Fatalf("slot %d not fresh after grow", i)
		}
	}
	// Force epoch wrap-around.
	sd.epoch = ^uint32(0)
	sd.Get(5).LastPos = 7
	sd.Reset(100)
	if sd.epoch != 1 {
		t.Errorf("epoch after wrap = %d, want 1", sd.epoch)
	}
	if sd.Get(5).LastPos != -1 {
		t.Error("state survived epoch wrap")
	}
}

func TestFinalizeOverrides(t *testing.T) {
	cfg, db, _, queries := testWorld(t, 60, 1, 128, 1<<20)
	q := queries[0]
	e := NewQueryIndexed(cfg, db)
	base := e.Search(0, q)

	big := *cfg
	big.DBLenOverride = db.TotalResidues * 1000
	big.DBSeqsOverride = int64(db.NumSeqs()) * 1000
	eBig := NewQueryIndexed(&big, db)
	inflated := eBig.Search(0, q)

	if len(inflated.HSPs) > len(base.HSPs) {
		t.Error("larger search space produced more hits")
	}
	// Common hits must have strictly larger E-values under the bigger space.
	for _, h := range inflated.HSPs {
		for _, b := range base.HSPs {
			if b.Subject == h.Subject && b.Aln.QStart == h.Aln.QStart && b.Aln.Score == h.Aln.Score {
				if h.EValue <= b.EValue {
					t.Errorf("E-value did not grow with search space: %g vs %g", h.EValue, b.EValue)
				}
			}
		}
	}
}

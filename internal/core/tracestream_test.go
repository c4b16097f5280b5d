package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/alphabet"
)

// TestTraceStreamGolden pins the cache simulator's input: the count and the
// FNV-64a hash of every (space, offset) call a traced one-thread search
// makes, in call order, for a query the 16-bit last-hit slots serve (300
// residues) and one past them (1 100). The
// simulated columns of Fig 2, 8 and 9 are a function of this stream alone, so
// a change to the detection or extension kernels that keeps these values
// keeps the figures.
func TestTraceStreamGolden(t *testing.T) {
	cfg, ix, queries := world(t, 37, 300, 1, 300, 1<<15)
	long := queryFrom(ix, 41, 1100)
	if len(ix.Blocks) < 2 || len(queries[0]) != 300 || len(long) != 1100 {
		t.Fatalf("world: %d blocks, queries of %d and %d residues", len(ix.Blocks), len(queries[0]), len(long))
	}

	var calls int64
	h := fnv.New64a()
	var rec [9]byte
	cfg.Trace = func(space uint8, off int64) {
		calls++
		rec[0] = space
		binary.LittleEndian.PutUint64(rec[1:], uint64(off))
		h.Write(rec[:])
	}
	e := New(cfg, ix)
	type stream struct {
		calls int64
		hash  uint64
	}
	take := func(run func()) stream {
		calls = 0
		h.Reset()
		run()
		return stream{calls, h.Sum64()}
	}
	for _, c := range []struct {
		q     []alphabet.Code
		batch stream
	}{
		{queries[0], stream{167475, 6534553397925526687}},
		{long, stream{638511, 4087124816280549684}},
	} {
		batch := take(func() { e.SearchBatch([][]alphabet.Code{c.q}, 1) })
		if batch != c.batch {
			t.Errorf("%d residues: SearchBatch stream %+v, want %+v", len(c.q), batch, c.batch)
		}
	}
}

// Package dbindex builds the blocked database index of Section III: the
// length-sorted database is cut into blocks of bounded residue count, and
// each block gets a lookup table from every W-letter word to the positions
// where the word occurs.
//
// Two properties distinguish it from earlier database indexes and give it
// NCBI-identical sensitivity:
//
//   - overlapping words: every position of every subject sequence is
//     indexed, not a sampled or non-overlapping subset;
//   - neighboring words via a two-level structure: the index stores only
//     exact-word positions, and hit detection consults the shared
//     neighbor.Table to visit all neighbors of each query word (Fig 3b),
//     avoiding the enormous duplication of expanding neighbors into the
//     table itself.
//
// A position is a block coordinate: the block lays its sequences end to end
// on one axis, each followed by Pad empty coordinates, and stores the
// coordinate of the word's first residue as one 32-bit integer (the paper's
// "each position is stored in 32-bit Integer" accounting in Section V-B).
// Hit detection scans the coordinates as stored — coordinate minus query
// offset is a diagonal of the whole block, and Pad = window - W keeps two
// sequences that share a block diagonal at least a two-hit window apart on
// it, so one last-hit slot per block diagonal gives the same verdicts as one
// per (sequence, diagonal) (DESIGN.md, "Hit detection") — and only the few
// hits that pair are decoded back to (local sequence id, subject offset), by
// Decode.
package dbindex

import (
	"fmt"
	"math"

	"repro/internal/alphabet"
	"repro/internal/dbase"
	"repro/internal/neighbor"
	"repro/internal/parallel"
	"repro/internal/ungapped"
)

// BlockIndex is the lookup table for one index block.
type BlockIndex struct {
	Block dbase.Block
	// Pad is the number of empty block coordinates after every sequence:
	// the build's two-hit window minus the word length, so the block serves
	// any window up to Pad + alphabet.W.
	Pad int
	// CSR layout: the positions of word w are flat[offsets[w]:offsets[w+1]].
	offsets []int32
	flat    []uint32
	// segStart[l] is the block coordinate of local sequence l's first
	// residue, segStart[NumSeqs] the block's span. coarse[c] is the sequence
	// whose segment (residues and padding) holds coordinate c<<coarseShift.
	// Both are derived from the database, never stored.
	segStart []int32
	coarse   []int32
}

// coarseShift sets the grain of Decode's coordinate-to-sequence table: one
// int32 per 256 coordinates is 1/64 of the position array, and a sequence
// with its padding is rarely shorter than that, so the walk that follows the
// table lookup is a step or two.
const coarseShift = 8

// Index is the complete blocked database index.
type Index struct {
	DB        *dbase.DB
	Neighbors *neighbor.Table
	Blocks    []*BlockIndex
	// BlockResidues is the residue cap each block was built with.
	BlockResidues int64
}

// Build length-sorts db in place (the paper sorts during index construction)
// and builds one BlockIndex per block of at most blockResidues residues,
// using all cores. The result is deterministic: blocks are independent and
// land at fixed positions regardless of scheduling. The blocks are padded for
// the default two-hit window; BuildWindow pads for another.
func Build(db *dbase.DB, nbr *neighbor.Table, blockResidues int64) (*Index, error) {
	return BuildParallel(db, nbr, blockResidues, 0)
}

// BuildWindow is Build for searches with the given two-hit window: the
// index serves that window and every smaller one.
func BuildWindow(db *dbase.DB, nbr *neighbor.Table, blockResidues int64, window int) (*Index, error) {
	return build(db, nbr, blockResidues, window, 0)
}

// BuildParallel is Build with an explicit worker count (<= 0 means
// GOMAXPROCS; 1 builds serially).
func BuildParallel(db *dbase.DB, nbr *neighbor.Table, blockResidues int64, threads int) (*Index, error) {
	return build(db, nbr, blockResidues, ungapped.DefaultParams().Window, threads)
}

// maxPad bounds a block's padding, in the builder and in the loader alike.
const maxPad = 1<<16 - 1

func build(db *dbase.DB, nbr *neighbor.Table, blockResidues int64, window, threads int) (*Index, error) {
	if window-alphabet.W > maxPad {
		return nil, fmt.Errorf("dbindex: two-hit window %d needs a padding above %d", window, maxPad)
	}
	if blockResidues <= 0 {
		return nil, fmt.Errorf("dbindex: blockResidues must be positive, got %d", blockResidues)
	}
	db.SortByLength()
	blocks := db.Blocks(blockResidues)
	ix := &Index{DB: db, Neighbors: nbr, BlockResidues: blockResidues, Blocks: make([]*BlockIndex, len(blocks))}
	errs := make([]error, len(blocks))
	parallel.For(len(blocks), threads, func(i int) {
		bi, err := buildBlock(db, blocks[i], window)
		if err != nil {
			errs[i] = fmt.Errorf("dbindex: block %d: %w", i, err)
			return
		}
		ix.Blocks[i] = bi
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ix, nil
}

func buildBlock(db *dbase.DB, b dbase.Block, window int) (*BlockIndex, error) {
	bi := &BlockIndex{Block: b, Pad: max(window-alphabet.W, 0), offsets: make([]int32, alphabet.NumWords+1)}
	if _, _, err := bi.layout(db); err != nil {
		return nil, err
	}
	counts := make([]int32, alphabet.NumWords)
	total := int32(0)
	for s := b.Start; s < b.End; s++ {
		alphabet.Words(db.Seqs[s].Data, func(_ int, w alphabet.Word) {
			counts[w]++
			total++
		})
	}
	sum := int32(0)
	for w := 0; w < alphabet.NumWords; w++ {
		bi.offsets[w] = sum
		sum += counts[w]
	}
	bi.offsets[alphabet.NumWords] = sum
	bi.flat = make([]uint32, total)
	next := make([]int32, alphabet.NumWords)
	copy(next, bi.offsets[:alphabet.NumWords])
	for s := b.Start; s < b.End; s++ {
		start := uint32(bi.segStart[s-b.Start])
		alphabet.Words(db.Seqs[s].Data, func(off int, w alphabet.Word) {
			bi.flat[next[w]] = start + uint32(off)
			next[w]++
		})
	}
	return bi, nil
}

// layout lays the block's sequences on the coordinate axis — segStart and
// the coarse table Decode reads — and returns what it saw on the way, the
// block's residue count and longest sequence, for the loader to hold the
// stream's claims against.
func (b *BlockIndex) layout(db *dbase.DB) (residues int64, maxLen int, err error) {
	numSeqs := b.Block.NumSeqs()
	b.segStart = make([]int32, numSeqs+1)
	span := int64(0)
	for l := 0; l < numSeqs; l++ {
		n := len(db.Seqs[b.Block.Start+l].Data)
		b.segStart[l] = int32(span)
		residues += int64(n)
		maxLen = max(maxLen, n)
		span += int64(n + b.Pad)
		if span > math.MaxInt32 {
			return 0, 0, fmt.Errorf("block coordinates need more than 31 bits (%d seqs, padding %d); use smaller blocks",
				numSeqs, b.Pad)
		}
	}
	b.segStart[numSeqs] = int32(span)
	b.coarse = make([]int32, (span+1<<coarseShift-1)>>coarseShift)
	l := int32(0)
	for c := range b.coarse {
		for b.segStart[l+1] <= int32(c)<<coarseShift {
			l++
		}
		b.coarse[c] = l
	}
	return residues, maxLen, nil
}

// Positions returns the positions of word w in this block as block
// coordinates, ascending (which is ascending by local sequence id, then by
// subject offset). The slice is a view; callers must not modify it.
func (b *BlockIndex) Positions(w alphabet.Word) []uint32 {
	return b.flat[b.offsets[w]:b.offsets[w+1]]
}

// Base returns the flat-array index of the first position stored under w,
// used by the cache simulator to map lookups to index addresses.
func (b *BlockIndex) Base(w alphabet.Word) int32 { return b.offsets[w] }

// Span returns the length of the block's coordinate axis: its residues plus
// Pad coordinates after every sequence.
func (b *BlockIndex) Span() int { return int(b.segStart[len(b.segStart)-1]) }

// Decode resolves a position into its local sequence id and subject offset:
// the coarse table names a sequence at or before the coordinate's, and a
// short walk over segStart finds the one that holds it.
func (b *BlockIndex) Decode(g uint32) (seqLocal, sOff int) {
	l := int(b.coarse[g>>coarseShift])
	for uint32(b.segStart[l+1]) <= g {
		l++
	}
	return l, int(g) - int(b.segStart[l])
}

// Seq returns the subject sequence for a local id within this block.
func (b *BlockIndex) Seq(db *dbase.DB, seqLocal int) *dbase.Sequence {
	return &db.Seqs[b.Block.Start+seqLocal]
}

// NumPositions returns the number of indexed positions in the block.
func (b *BlockIndex) NumPositions() int { return len(b.flat) }

// SizeBytes estimates the block's memory footprint: the position array plus
// the per-word offset array. This is the quantity swept in Fig 8.
func (b *BlockIndex) SizeBytes() int64 {
	return int64(len(b.flat))*4 + int64(len(b.offsets))*4
}

// MaxWindow returns the widest two-hit window the index serves: the padding
// of its least padded block plus the word length.
func (ix *Index) MaxWindow() int {
	pad := maxPad
	for _, b := range ix.Blocks {
		pad = min(pad, b.Pad)
	}
	return pad + alphabet.W
}

// NumPositions returns the total positions across all blocks, which equals
// the number of indexable words in the database.
func (ix *Index) NumPositions() int {
	n := 0
	for _, b := range ix.Blocks {
		n += b.NumPositions()
	}
	return n
}

// SizeBytes estimates the whole index's memory footprint, excluding the
// shared neighbor table (report that separately via Neighbors.SizeBytes).
func (ix *Index) SizeBytes() int64 {
	var n int64
	for _, b := range ix.Blocks {
		n += b.SizeBytes()
	}
	return n
}

// ExpandedSizeBytes estimates what the index would cost if neighbor
// positions were expanded into the table the way the query index does it
// (the design the two-level structure avoids, Section III): every position
// of word w is replicated under each of w's neighbors.
func (ix *Index) ExpandedSizeBytes() int64 {
	var entries int64
	for _, b := range ix.Blocks {
		for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
			n := int64(len(b.Positions(w)))
			if n > 0 {
				entries += n * int64(ix.Neighbors.NumNeighbors(w))
			}
		}
	}
	return entries*4 + int64(len(ix.Blocks))*int64(alphabet.NumWords+1)*4
}

// OptimalBlockResidues applies the paper's block sizing rule (Section V-B):
// the index block and the per-thread last-hit arrays should together fit in
// the shared L3 cache. With t threads and block size b bytes the paper's
// last-hit arrays take ~2·b·t bytes, so b = L3 / (2t + 1). Ours are smaller —
// one 2-byte slot per block diagonal is ≈ b/2 bytes a thread — so the rule
// leaves slack; it is kept as the paper states it, and the measured optimum
// is in EXPERIMENTS.md (the Fig 8 sweep). The return value is in residues
// (positions), at 4 bytes each, clamped to a sane minimum.
func OptimalBlockResidues(l3Bytes int64, threads int) int64 {
	if threads < 1 {
		threads = 1
	}
	b := l3Bytes / int64(2*threads+1)
	residues := b / 4
	if residues < 1024 {
		residues = 1024
	}
	return residues
}

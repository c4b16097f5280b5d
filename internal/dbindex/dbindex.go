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
//     exact-word positions, and hit detection visits all neighbors of each
//     query word, enumerated per query (neighbor.Enumerator, Fig 3b),
//     avoiding the enormous duplication of expanding neighbors into the
//     table itself. The index records which words it holds at all (Words),
//     so that the enumeration can leave out the neighbors no block has.
//
// A position is a block coordinate: the block lays its sequences end to end
// on one axis, each followed by Pad empty coordinates, and a word's position
// is the coordinate of its first residue. A word's positions ascend and are
// stored in 16 bits each — half of the paper's "each position is stored in
// 32-bit Integer" (Section V-B) — as runs: within a run each position is
// stored as its distance from the one before, and a run's first as its
// offset in its page, the axis being cut into pages of 1<<16 coordinates. A
// run ends where the next distance would not fit, so most words' positions
// are one run. The word table holds one 16-bit entry per word: its start in
// the position array, in 12 bits as an offset from the base of its group of
// 2^k consecutive words (a short array of 32-bit bases, k at most 6 and as
// large as the block's position counts allow), and in 4 bits the page of its
// run when it has only one and that page is below 15 (Lead), which with the
// word's position count describes the run in full. Only the few words that
// need more (3.5% of the (word, block) rows of the benchmark's 55-block
// database) keep a row of the split table, the 8-bit length of the run that
// starts in each page (Runs).
// Hit detection rebuilds each coordinate with one add (Next) as it scans —
// coordinate minus query offset is a diagonal of the whole block, and Pad =
// window - W keeps two sequences that share a block diagonal at least a
// two-hit window apart on it, so one last-hit slot per block diagonal gives
// the same verdicts as one per (sequence, diagonal) (DESIGN.md, "Hit
// detection") — and only the few hits that pair are decoded back to (local
// sequence id, subject offset), by Decode.
package dbindex

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/alphabet"
	"repro/internal/dbase"
	"repro/internal/neighbor"
	"repro/internal/parallel"
	"repro/internal/ungapped"
)

// PageShift sets the page of a position: coordinate g lies in page g>>16, at
// offset uint16(g).
const PageShift = 16

// splitWide is the split-table byte of a run too long for it: the run's
// length is in BlockIndex.wide instead. A low-complexity stretch makes runs
// that long.
const splitWide = math.MaxUint8

// BlockIndex is the lookup table for one index block.
type BlockIndex struct {
	Block dbase.Block
	// Pad is the number of empty block coordinates after every sequence:
	// the build's two-hit window minus the word length, so the block serves
	// any window up to Pad + alphabet.W.
	Pad int
	// CSR layout: the positions of word w are flat[Base(w):Base(w+1)],
	// ascending, in runs, the first starting in the lowest page (see Runs).
	// The low startBits of words[w] are Base(w) - bases[w>>shift], the
	// offset of w's start from the start of its group of 1<<shift words;
	// the high bits are w's lead page, the page of its one run, or NoLead
	// if it has several (or starts in page NoLead or later); see Lead.
	// words has NumWords+1 entries, the last (lead 0) ending the last word.
	words []uint16
	bases []int32
	shift uint8
	flat  []uint16
	pages int
	// The split table, kept only for the words whose lead is NoLead: multi
	// lists them ascending, and the row of multi[i] is
	// rows[i*pages:(i+1)*pages], the length of its run that starts in each
	// page. A run of splitWide or more positions has its length in wide,
	// sorted by cell (w*pages + p). rowDir[k] is the index in multi of the
	// first word w with w>>rowDirShift = k, if there is one: a word's search
	// for its row starts there.
	multi  []alphabet.Word
	rowDir []uint16
	rows   []uint8
	wide   []wideRun
	// segStart[l] is the block coordinate of local sequence l's first
	// residue, segStart[NumSeqs] the block's span. coarse[c] is the sequence
	// whose segment (residues and padding) holds coordinate c<<coarseShift.
	segStart []int32
	coarse   []int32
}

// startBits is the width of a word-table entry's start offset; the entry's
// other 4 bits are its lead page.
const (
	startBits = 12
	startMask = 1<<startBits - 1
)

// NoLead is the lead page of a word that the scan must walk run by run.
const NoLead = 1<<(16-startBits) - 1

// maxGroupShift bounds a block's word groups at 1<<6 words: one 32-bit base
// per 64 words is 868 bytes a block, and in the benchmark's 128 Ki-residue
// protein blocks the largest offset within such a group is about 2 040,
// half of what the 12 bits hold.
const maxGroupShift = 6

// Every group size divides alphabet.NumWords (13 824 = 2^9 x 27): the
// constant below overflows, and the build fails, if it does not.
const _ uint = -(alphabet.NumWords % (1 << maxGroupShift))

// rowDirShift sets the grain of the split table's directory: one entry per
// 64 words is 432 bytes a block, and leaves a word's search for its row a
// step or two past where the directory points, where a binary search over
// the several hundred words of a large block that keep rows takes ten
// (EXPERIMENTS.md, "PR-30 resident tables").
const rowDirShift = 6

// wideRun is the length of a run the split table's byte cannot hold.
type wideRun struct{ cell, n int32 }

// coarseShift sets the grain of Decode's coordinate-to-sequence table: one
// int32 per 256 coordinates is 1/64 of the position array, and a sequence
// with its padding is rarely shorter than that, so the walk that follows the
// table lookup is a step or two.
const coarseShift = 8

// Index is the complete blocked database index.
type Index struct {
	DB        *dbase.DB
	Neighbors *neighbor.Enumerator
	Blocks    []*BlockIndex
	// Words holds every word that has a position in some block: a
	// neighbor outside it has no hits anywhere in the index. The builder
	// fills it in the loop over the word table it runs anyway.
	Words neighbor.Set
	// BlockResidues is the residue cap each block was built with.
	BlockResidues int64
}

// Build length-sorts db in place (the paper sorts during index construction;
// a database already in length order is left as it is) and builds one
// BlockIndex per block of at most blockResidues residues, using all cores.
// The result is deterministic: blocks are independent and land at fixed
// positions regardless of scheduling. The blocks are padded for the default
// two-hit window; BuildWindow pads for another.
func Build(db *dbase.DB, nbr *neighbor.Enumerator, blockResidues int64) (*Index, error) {
	return BuildParallel(db, nbr, blockResidues, 0)
}

// BuildWindow is Build for searches with the given two-hit window: the
// index serves that window and every smaller one.
func BuildWindow(db *dbase.DB, nbr *neighbor.Enumerator, blockResidues int64, window int) (*Index, error) {
	return build(db, nbr, blockResidues, window, 0)
}

// BuildParallel is Build with an explicit worker count (<= 0 means
// GOMAXPROCS; 1 builds serially).
func BuildParallel(db *dbase.DB, nbr *neighbor.Enumerator, blockResidues int64, threads int) (*Index, error) {
	return build(db, nbr, blockResidues, ungapped.DefaultWindow, threads)
}

// maxPad bounds a block's padding.
const maxPad = 1<<16 - 1

func build(db *dbase.DB, nbr *neighbor.Enumerator, blockResidues int64, window, threads int) (*Index, error) {
	if window-alphabet.W > maxPad {
		return nil, fmt.Errorf("dbindex: two-hit window %d needs a padding above %d", window, maxPad)
	}
	if blockResidues <= 0 {
		return nil, fmt.Errorf("dbindex: blockResidues must be positive, got %d", blockResidues)
	}
	if !db.IsSortedByLength() {
		db.SortByLength()
	}
	blocks := db.Blocks(blockResidues)
	ix := &Index{DB: db, Neighbors: nbr, BlockResidues: blockResidues, Blocks: make([]*BlockIndex, len(blocks))}
	errs := make([]error, len(blocks))
	scratch := make([]*buildScratch, parallel.NumWorkers(len(blocks), threads))
	for i := range scratch {
		scratch[i] = scratchPool.Get().(*buildScratch)
		defer scratchPool.Put(scratch[i])
	}
	for _, sc := range scratch {
		clear(sc.words[:])
	}
	parallel.ForWorkers(len(blocks), threads, func(worker, i int) {
		bi, err := buildBlock(db, blocks[i], window, scratch[worker])
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
	for _, sc := range scratch {
		ix.Words.Union(&sc.words)
	}
	return ix, nil
}

// buildScratch is one build worker's working memory, reused from block to
// block and, through scratchPool, from build to build: a delta of a few
// sequences would otherwise spend longer clearing it than indexing.
type buildScratch struct {
	count    []uint32        // per word: its positions, then its row (see buildBlock)
	starts   []uint32        // per word and one past the last: see setStarts
	cur      []cursor        // per word: see cursor
	runs     []closedRun     // the runs of the words that have several
	rowWords []alphabet.Word // those words, ascending
	lens     []uint32        // their run lengths, a row of pages per word
	words    neighbor.Set    // the words of every block the worker built
}

// closedRun is a run of word w that starts in page page and holds n
// positions.
type closedRun struct {
	w       alphabet.Word
	page, n uint32
}

// cursor is where a build is in one word's positions: the next one goes to
// flat[next]; the last was at coordinate last; the current run began at
// flat[start], in page page.
type cursor struct{ next, last, start, page uint32 }

var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

func buildBlock(db *dbase.DB, b dbase.Block, window int, sc *buildScratch) (*BlockIndex, error) {
	bi := &BlockIndex{Block: b, Pad: max(window-alphabet.W, 0), words: make([]uint16, alphabet.NumWords+1)}
	if err := bi.layout(db); err != nil {
		return nil, err
	}
	count := grown(&sc.count, alphabet.NumWords)
	clear(count)
	for s := b.Start; s < b.End; s++ {
		alphabet.Words(db.Seqs[s].Data, func(_ int, w alphabet.Word) { count[w]++ })
	}
	cur := grown(&sc.cur, alphabet.NumWords)
	starts := grown(&sc.starts, alphabet.NumWords+1)
	sum := uint32(0)
	for w, n := range count {
		cur[w] = cursor{next: sum, start: sum}
		starts[w] = sum
		sum += n
		if n != 0 {
			sc.words.Add(alphabet.Word(w))
		}
	}
	starts[alphabet.NumWords] = sum
	bi.setStarts(starts)
	// Each word's positions come in ascending order, each stored as its
	// distance from the one before — the first from coordinate 0 — as the
	// sequences are walked. A distance of a page or more ends a run and
	// starts another: the position is stored as its offset in its page.
	runs := sc.runs[:0]
	flat := make([]uint16, sum)
	for s := b.Start; s < b.End; s++ {
		start := uint32(bi.segStart[s-b.Start])
		alphabet.Words(db.Seqs[s].Data, func(off int, w alphabet.Word) {
			c := &cur[w]
			g := start + uint32(off)
			d := g - c.last
			if d >= 1<<PageShift {
				if n := c.next - c.start; n > 0 {
					runs = append(runs, closedRun{w, c.page, n})
				}
				c.start, c.page = c.next, g>>PageShift
				d = g & (1<<PageShift - 1)
			}
			flat[c.next] = uint16(d)
			c.next++
			c.last = g
		})
	}
	bi.flat = flat
	// Each word's last run is still open; a word whose last run holds all
	// its positions leads with that run's page, and the others get rows,
	// numbered in word order in count, which the starts no longer need.
	rowWords := sc.rowWords[:0]
	for w, c := range cur {
		if c.next-c.start != count[w] || c.page >= NoLead {
			runs = append(runs, closedRun{alphabet.Word(w), c.page, c.next - c.start})
			count[w] = uint32(len(rowWords))
			rowWords = append(rowWords, alphabet.Word(w))
		} else if c.page != 0 {
			bi.setLead(alphabet.Word(w), int(c.page))
		}
	}
	lens := grown(&sc.lens, len(rowWords)*bi.pages)
	clear(lens)
	for _, r := range runs {
		lens[int(count[r.w])*bi.pages+int(r.page)] = r.n
	}
	for i, w := range rowWords {
		bi.setRuns(w, lens[i*bi.pages:(i+1)*bi.pages])
	}
	sc.runs, sc.rowWords = runs, rowWords
	bi.keepRows()
	return bi, nil
}

// setStarts lays out the word table's starts, given each word's start in
// the position array and the array's end, keeping the words' lead pages. The
// groups are the largest, up to 1<<maxGroupShift words, in which every
// start lies within startMask of its group's first; one word a group always
// fits. The end is the first of a group of its own: alphabet.NumWords is a
// multiple of every group size.
func (b *BlockIndex) setStarts(starts []uint32) {
	shift := maxGroupShift
	for ; shift > 0; shift-- {
		size, fits := 1<<shift, true
		for g := size; g < len(starts) && fits; g += size {
			fits = starts[g-1]-starts[g-size] <= startMask
		}
		if fits {
			break
		}
	}
	b.shift, b.bases = uint8(shift), make([]int32, alphabet.NumWords>>shift+1)
	for g := range b.bases {
		base := starts[g<<shift]
		b.bases[g] = int32(base)
		group := b.words[g<<shift : min((g+1)<<shift, len(b.words))]
		for i, s := range starts[g<<shift:][:len(group)] {
			group[i] = group[i]&^startMask | uint16(s-base)
		}
	}
}

// grown returns (*buf)[:n], growing *buf first if it is shorter.
func grown[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// setRuns records the runs of word w, given the length of the one that
// starts in each page: in w's lead page when they are one run that it can
// name, else in a row of the split table. Words must come in ascending order,
// which keeps multi and wide sorted.
func (b *BlockIndex) setRuns(w alphabet.Word, lens []uint32) {
	runs, first := 0, 0
	for p := len(lens) - 1; p >= 0; p-- {
		if lens[p] != 0 {
			runs, first = runs+1, p
		}
	}
	if runs <= 1 && first < NoLead { // one run, or none: page 0 will do
		b.setLead(w, first)
		return
	}
	b.setLead(w, NoLead)
	b.multi = append(b.multi, w)
	for p, n := range lens {
		if n < splitWide {
			b.rows = append(b.rows, uint8(n))
			continue
		}
		b.rows = append(b.rows, splitWide)
		b.wide = append(b.wide, wideRun{int32(int(w)*b.pages + p), int32(n)})
	}
}

// setLead sets the lead page of word w.
func (b *BlockIndex) setLead(w alphabet.Word, page int) {
	b.words[w] = b.words[w]&startMask | uint16(page)<<startBits
}

// keepRows drops the slack that appending left in the split table, which is
// held for the life of the block, and builds its directory.
func (b *BlockIndex) keepRows() {
	b.multi, b.rows, b.wide = slices.Clone(b.multi), slices.Clone(b.rows), slices.Clone(b.wide)
	b.rowDir = make([]uint16, alphabet.NumWords>>rowDirShift)
	for i := len(b.multi) - 1; i >= 0; i-- {
		b.rowDir[b.multi[i]>>rowDirShift] = uint16(i)
	}
}

// layout lays the block's sequences on the coordinate axis: segStart, the
// coarse table Decode reads and the page count.
func (b *BlockIndex) layout(db *dbase.DB) error {
	numSeqs := b.Block.NumSeqs()
	b.segStart = make([]int32, numSeqs+1)
	span := int64(0)
	for l := 0; l < numSeqs; l++ {
		n := len(db.Seqs[b.Block.Start+l].Data)
		b.segStart[l] = int32(span)
		span += int64(n + b.Pad)
		if span > math.MaxInt32 {
			return fmt.Errorf("block coordinates need more than 31 bits (%d seqs, padding %d); use smaller blocks",
				numSeqs, b.Pad)
		}
	}
	b.segStart[numSeqs] = int32(span)
	b.pages = int((span + 1<<PageShift - 1) >> PageShift)
	b.coarse = make([]int32, (span+1<<coarseShift-1)>>coarseShift)
	l := int32(0)
	for c := range b.coarse {
		for b.segStart[l+1] <= int32(c)<<coarseShift {
			l++
		}
		b.coarse[c] = l
	}
	return nil
}

// Pages returns the number of 1<<PageShift-coordinate pages the block's axis
// spans.
func (b *BlockIndex) Pages() int { return b.pages }

// Word returns where the positions of word w lie in Flat, Flat()[lo:hi],
// and w's lead page: the page its run starts in when it is one run (as most
// words' are), else NoLead. It is Lead for a scan that keeps Flat at hand,
// small enough to be inlined into its loop.
func (b *BlockIndex) Word(w alphabet.Word) (lo, hi, lead int) {
	e, f, s := b.words[w], b.words[w+1], b.shift&15
	return int(b.bases[w>>s]) + int(e&startMask), int(b.bases[(w+1)>>s]) + int(f&startMask), int(e >> startBits)
}

// Flat returns the block's position array, every word's positions as
// stored, word after word; Word says where each word's are. It is a view;
// callers must not modify it.
func (b *BlockIndex) Flat() []uint16 { return b.flat }

// Lead returns the positions of word w as stored and, when they form one
// run (as most words' do) that starts in a page below NoLead, the page it
// starts in, so that a scan can walk them with Next from page<<PageShift
// without looking up a row of the split table. When ok is false, walk Runs.
func (b *BlockIndex) Lead(w alphabet.Word) (offs []uint16, page int, ok bool) {
	lo, hi, page := b.Word(w)
	return b.flat[lo:hi], page, page != NoLead
}

// Runs returns the positions of word w as stored and the word's row of the
// split table, for RunLen: the first RunLen(w, 0, row) positions are the run
// that starts in page 0, the next RunLen(w, 1, row) the run that starts in
// page 1, and so on until the positions are used up. The coordinate of a
// run's first position is Next(p<<PageShift, d) for its page p and its
// stored value d, and of every later one Next(previous coordinate, d). A word
// whose positions are one run (Lead's ok) has no row: row is nil. Both
// slices are views; callers must not modify them.
func (b *BlockIndex) Runs(w alphabet.Word) (offs []uint16, row []uint8) {
	offs, _, one := b.Lead(w)
	if one {
		return offs, nil
	}
	i := int(b.rowDir[w>>rowDirShift])
	for b.multi[i] != w {
		i++
	}
	return offs, b.rows[i*b.pages : (i+1)*b.pages]
}

// RunLen returns the length of word w's run that starts in page p, given
// the word's row from Runs.
func (b *BlockIndex) RunLen(w alphabet.Word, p int, row []uint8) int {
	if row == nil {
		lo, hi, page := b.Word(w)
		if p != page {
			return 0
		}
		return hi - lo
	}
	if c := row[p]; c < splitWide {
		return int(c)
	}
	cell := int32(int(w)*b.pages + p)
	i, _ := slices.BinarySearchFunc(b.wide, cell, func(r wideRun, c int32) int { return cmp.Compare(r.cell, c) })
	return int(b.wide[i].n)
}

// Next returns the coordinate a position stored as d stands for, when it
// follows coordinate g in its run. For a run's first position, g is the
// run's page times 1<<PageShift.
func Next(g uint32, d uint16) uint32 { return g + uint32(d) }

// Positions returns the positions of word w in this block as block
// coordinates, ascending (which is ascending by local sequence id, then by
// subject offset), in a new slice. The scans read Runs instead.
func (b *BlockIndex) Positions(w alphabet.Word) []uint32 {
	offs, row := b.Runs(w)
	out := make([]uint32, 0, len(offs))
	for p := 0; len(offs) > 0; p++ {
		n := b.RunLen(w, p, row)
		g := uint32(p) << PageShift
		for _, d := range offs[:n] {
			g = Next(g, d)
			out = append(out, g)
		}
		offs = offs[n:]
	}
	return out
}

// Base returns the flat-array index of the first position stored under w,
// used by the cache simulator to map lookups to index addresses.
func (b *BlockIndex) Base(w alphabet.Word) int32 {
	return b.bases[w>>(b.shift&15)] + int32(b.words[w]&startMask)
}

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

// SizeBytes returns the block's memory footprint: the position array, the
// word table (an entry per word, the group bases, and the split table: its
// rows, their words, their wide runs and its directory) and the layout
// Decode reads (segStart and the coarse table).
func (b *BlockIndex) SizeBytes() int64 {
	return int64(len(b.flat))*2 + int64(len(b.words))*2 + int64(len(b.bases))*4 +
		int64(len(b.rows)) + int64(len(b.multi))*2 + int64(len(b.wide))*8 + int64(len(b.rowDir))*2 +
		int64(len(b.segStart))*4 + int64(len(b.coarse))*4
}

// ModelBytes is the block's footprint in the paper's accounting — one 32-bit
// integer per position and per word start (Section V-B) — which is the
// address space the cache simulator lays index blocks out in, so that the
// simulated figures do not move with the stored width.
func (b *BlockIndex) ModelBytes() int64 {
	return int64(len(b.flat))*4 + (alphabet.NumWords+1)*4
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

// SizeBytes estimates the whole index's memory footprint: its blocks and
// its word set. The neighbor enumerator is shared; report it separately
// (Neighbors.SizeBytes).
func (ix *Index) SizeBytes() int64 {
	n := int64(len(ix.Words)) * 4
	for _, b := range ix.Blocks {
		n += b.SizeBytes()
	}
	return n
}

// ExpandedSizeBytes estimates what the index would cost if neighbor
// positions were expanded into the table the way the query index does it
// (the design the two-level structure avoids, Section III): every position
// of word w is replicated under each of w's neighbors, in this index's own
// layout (2-byte positions beside the same word tables).
func (ix *Index) ExpandedSizeBytes() int64 {
	var n int64
	var buf []alphabet.Word
	for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
		if !ix.Words.Has(w) {
			continue
		}
		buf = ix.Neighbors.Append(buf[:0], w)
		nbrs := int64(len(buf))
		for _, b := range ix.Blocks {
			n += int64(b.Base(w+1)-b.Base(w)) * nbrs * 2
		}
	}
	for _, b := range ix.Blocks {
		n += b.SizeBytes() - int64(len(b.flat))*2
	}
	return n
}

// MinBlockResidues is the smallest block OptimalBlockResidues sizes, and the
// smallest cap a database may be built or loaded with. A block's word table
// costs about 28 KB whatever its residues, and in a length-sorted database
// every block but at most two holds more than half the cap, so the floor
// bounds that fixed cost at about 56 bytes a residue, two blocks aside.
const MinBlockResidues = 1024

// OptimalBlockResidues applies the paper's block sizing rule (Section V-B):
// the index block and the per-thread last-hit arrays should together fit in
// the shared L3 cache. With t threads and block size b bytes the paper's
// last-hit arrays take ~2·b·t bytes, so b = L3 / (2t + 1), and the return
// value is b at the paper's 4 bytes a position (a residue), clamped to
// MinBlockResidues. Ours are smaller: a position is 2 bytes and the last-hit
// array one 2-byte slot per block diagonal (4 bytes above 1 026 query
// residues), so a block and one thread's array take about the bytes the
// paper's block alone does, and the rule, kept as the paper states it for
// every query length, leaves slack; the measured optimum is in
// EXPERIMENTS.md (the Fig 8 sweep).
func OptimalBlockResidues(l3Bytes int64, threads int) int64 {
	if threads < 1 {
		threads = 1
	}
	b := l3Bytes / int64(2*threads+1)
	return max(b/4, MinBlockResidues)
}

package dbindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/alphabet"
	"repro/internal/dbase"
)

// Index file format (little-endian):
//
//	magic "MUIX2\n"
//	int64 blockResidues
//	uvarint numBlocks
//	per block:
//	  uvarint start, end, residues, maxLen, pad
//	  word table: per word, uvarint n<<1 | split, where n is its number
//	    of positions and split is 0 when they are one run from page 0 (or
//	    none); when split is 1, Pages()-1 uvarints follow: the lengths of
//	    its runs that start in each page but the last (whose run holds the
//	    rest)
//	  raw little-endian uint16 positions, word after word
//
// Positions are stored as the package doc says: a run's first as its offset
// in its page of the block's coordinate axis, every later one as its
// distance from the one before. segStart, the coarse table and the page
// count are rebuilt from the attached database on load, and the in-memory
// word table (starts, lead pages and split table) from the stored one.
//
// The database itself is serialized separately (dbase.WriteTo); on load the
// caller re-attaches it. The neighbor table is always rebuilt from the
// scoring matrix (cheap) rather than stored. Versioning and CRC32 checksums
// are layered on top by the blast container, which carries this stream as
// one section payload.

const ixMagic = "MUIX2\n"

// header returns the five block fields the stream carries before the
// block's word table.
func (b *BlockIndex) header() [5]uint64 {
	return [5]uint64{
		uint64(b.Block.Start), uint64(b.Block.End),
		uint64(b.Block.Residues), uint64(b.Block.MaxLen), uint64(b.Pad),
	}
}

// wordHeader returns the first word-table field of word w, whose positions
// start at start, and the next word's start.
func (b *BlockIndex) wordHeader(w alphabet.Word, start int32) (h uint64, next int32) {
	next = b.Base(w + 1)
	h = uint64(next-start) << 1
	if b.lead(w) != 0 {
		h |= 1
	}
	return h, next
}

// EncodedSize returns the exact number of bytes WriteTo writes.
func (ix *Index) EncodedSize() int64 {
	n := int64(len(ixMagic) + 8 + dbase.UvarintLen(uint64(len(ix.Blocks))))
	for _, b := range ix.Blocks {
		for _, v := range b.header() {
			n += int64(dbase.UvarintLen(v))
		}
		lens := make([]uint32, b.pages)
		start := int32(0)
		for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
			var h uint64
			h, start = b.wordHeader(w, start)
			n += int64(dbase.UvarintLen(h))
			if h&1 != 0 {
				b.runLens(w, lens)
				for _, c := range lens[:b.pages-1] {
					n += int64(dbase.UvarintLen(uint64(c)))
				}
			}
		}
		n += 2 * int64(len(b.flat))
	}
	return n
}

// WriteTo serializes the index structure (not the database or neighbor
// table) in chunks; a block's positions go out as whole chunks of halfwords.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	sw := dbase.NewStreamWriter(w)
	sw.String(ixMagic)
	sw.Uint64(uint64(ix.BlockResidues))
	sw.Uvarint(uint64(len(ix.Blocks)))
	for _, b := range ix.Blocks {
		for _, v := range b.header() {
			sw.Uvarint(v)
		}
		lens := make([]uint32, b.pages)
		start := int32(0)
		for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
			var h uint64
			h, start = b.wordHeader(w, start)
			sw.Uvarint(h)
			if h&1 != 0 {
				b.runLens(w, lens)
				for _, c := range lens[:b.pages-1] {
					sw.Uvarint(uint64(c))
				}
			}
		}
		sw.Uint16s(b.flat)
	}
	return sw.Flush()
}

// ReadFrom deserializes an index written by WriteTo and attaches it to db
// (which must be the same length-sorted database the index was built from).
// The stream must contain exactly one serialized index: trailing bytes are
// an error.
func ReadFrom(r io.Reader, db *dbase.DB) (*Index, error) {
	return ReadFromLimit(r, db, 1<<62)
}

// ReadFromLimit is ReadFrom with an allocation budget: lengths claimed by
// the stream are checked against maxBytes (the section size the caller knows
// from its framing) before allocation, and every decoded structure is bounds-
// checked — block ranges against db, the padding against its 16-bit range,
// the block's residue count and longest sequence against the sequences
// themselves, each word's run lengths against its position count, and every
// position against the word starts of the block — so a corrupt stream yields
// an error, never a panic or an OOM-scale allocation. The page count and the
// layout a position is read against come from db, which is required.
func ReadFromLimit(r io.Reader, db *dbase.DB, maxBytes int64) (*Index, error) {
	if maxBytes < 0 {
		return nil, fmt.Errorf("dbindex: negative read limit %d", maxBytes)
	}
	if db == nil {
		return nil, errors.New("dbindex: no database to attach the index to")
	}
	sr := dbase.NewStreamReader(r, maxBytes)
	magic, err := sr.Next(len(ixMagic))
	if err != nil {
		return nil, fmt.Errorf("dbindex: reading magic: %w", err)
	}
	if string(magic) != ixMagic {
		return nil, fmt.Errorf("dbindex: bad magic %q", magic)
	}
	hdr, err := sr.Next(8)
	if err != nil {
		return nil, fmt.Errorf("dbindex: reading header: %w", err)
	}
	ix := &Index{DB: db, BlockResidues: int64(binary.LittleEndian.Uint64(hdr))}
	numBlocks, err := sr.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("dbindex: block count: %w", err)
	}
	// Every block carries NumWords position counts of at least one byte, so
	// the block count can never exceed the stream budget divided by that.
	if numBlocks > 1<<24 || int64(numBlocks) > maxBytes/int64(alphabet.NumWords)+1 {
		return nil, fmt.Errorf("dbindex: implausible block count %d", numBlocks)
	}
	var valid []uint64 // word-start bitset, reused across blocks
	starts := make([]uint32, alphabet.NumWords+1)
	prevEnd := 0
	for i := uint64(0); i < numBlocks; i++ {
		var vals [5]uint64
		for j, what := range []string{"start", "end", "residues", "maxLen", "pad"} {
			if vals[j], err = sr.Uvarint(); err != nil {
				return nil, fmt.Errorf("dbindex: %s: %w", what, err)
			}
			if vals[j] > 1<<62 {
				return nil, fmt.Errorf("dbindex: block %d %s out of range (%d)", i, what, vals[j])
			}
		}
		b := &BlockIndex{
			Block: dbase.Block{
				Start: int(vals[0]), End: int(vals[1]),
				Residues: int64(vals[2]), MaxLen: int(vals[3]),
			},
			words: make([]uint16, alphabet.NumWords+1),
		}
		if vals[4] > maxPad {
			return nil, fmt.Errorf("dbindex: block %d padding %d out of range [0,%d]", i, vals[4], maxPad)
		}
		b.Pad = int(vals[4])
		if b.Block.Start > b.Block.End || b.Block.Start < prevEnd {
			return nil, fmt.Errorf("dbindex: block %d range [%d,%d) overlaps or is inverted (previous end %d)",
				i, b.Block.Start, b.Block.End, prevEnd)
		}
		if b.Block.End > db.NumSeqs() {
			return nil, fmt.Errorf("dbindex: block %d range [%d,%d) invalid for db with %d seqs",
				i, b.Block.Start, b.Block.End, db.NumSeqs())
		}
		// The engine sizes its sort key from MaxLen and its last-hit array
		// from the layout: neither is the stream's to claim.
		residues, maxLen, err := b.layout(db)
		if err != nil {
			return nil, fmt.Errorf("dbindex: block %d: %w", i, err)
		}
		if residues != b.Block.Residues || maxLen != b.Block.MaxLen {
			return nil, fmt.Errorf("dbindex: block %d claims %d residues, longest sequence %d; its sequences have %d, %d",
				i, b.Block.Residues, b.Block.MaxLen, residues, maxLen)
		}
		prevEnd = b.Block.End
		if err := b.readWordTable(sr, maxBytes, starts); err != nil {
			return nil, fmt.Errorf("dbindex: block %d: %w", i, err)
		}
		valid = b.wordStarts(db, valid)
		if err := b.readPositions(sr, valid, starts); err != nil {
			return nil, fmt.Errorf("dbindex: block %d: %w", i, err)
		}
		ix.Blocks = append(ix.Blocks, b)
	}
	if err := sr.End(); err != nil {
		return nil, fmt.Errorf("dbindex: after last block: %w", err)
	}
	return ix, nil
}

// readWordTable decodes the block's word table into its word starts, lead
// pages and split table, holding every word's runs to its position count,
// and leaves in starts (NumWords+1 long) each word's start in the position
// array and the array's end.
func (b *BlockIndex) readWordTable(sr *dbase.StreamReader, maxBytes int64, starts []uint32) error {
	row := make([]uint32, b.pages)
	total := uint64(0)
	for w := range starts[:alphabet.NumWords] {
		starts[w] = uint32(total)
		h, err := sr.Uvarint()
		if err != nil {
			return fmt.Errorf("word %d position count: %w", w, err)
		}
		n := h >> 1
		if n > math.MaxInt32 {
			return fmt.Errorf("implausible position count %d for word %d", n, w)
		}
		total += n
		switch {
		case h == 0:
		case b.pages == 0:
			return fmt.Errorf("word %d has %d positions in a block without coordinates", w, n)
		case h&1 == 0: // one run from page 0: lead 0
		default:
			if err := readRuns(sr, w, n, row); err != nil {
				return err
			}
			b.setRuns(alphabet.Word(w), row)
		}
	}
	b.keepRows()
	// Positions are stored raw at 2 bytes each; a count past the stream
	// budget cannot be honest.
	if total > uint64(maxBytes/2) || total > math.MaxInt32 {
		return fmt.Errorf("implausible position count %d", total)
	}
	starts[alphabet.NumWords] = uint32(total)
	b.setStarts(starts)
	return nil
}

// readRuns decodes into row the run lengths by page of word w, which has n
// positions.
func readRuns(sr *dbase.StreamReader, w int, n uint64, row []uint32) error {
	last := len(row) - 1
	for p := range row[:last] {
		c, err := sr.Uvarint()
		if err != nil {
			return fmt.Errorf("word %d runs: %w", w, err)
		}
		if c > n {
			return fmt.Errorf("word %d has a run of %d positions from page %d, more than the %d its list has left", w, c, p, n)
		}
		row[p] = uint32(c)
		n -= c
	}
	row[last] = uint32(n)
	return nil
}

// wordStarts marks, in a bitset over the block's coordinates, every
// coordinate that starts a full W-letter word of a sequence of the block — a
// run of ones per sequence — reusing buf's storage.
func (b *BlockIndex) wordStarts(db *dbase.DB, buf []uint64) []uint64 {
	n := (b.Span() + 63) / 64
	if buf == nil || cap(buf) < n {
		buf = make([]uint64, n)
	}
	valid := buf[:n]
	clear(valid)
	for l := 0; l < b.Block.NumSeqs(); l++ {
		lo := int(b.segStart[l])
		hi := lo + len(db.Seqs[b.Block.Start+l].Data) - alphabet.W + 1 // one past the last word start
		for lo < hi {
			n := min(hi-lo, 64-lo&63)
			valid[lo>>6] |= (^uint64(0) >> (64 - n)) << (lo & 63)
			lo += n
		}
	}
	return valid
}

// readPositions decodes the block's positions from the stream's chunks
// straight into its position array, word by word, and checks the coordinate
// of every one in the same pass against the word-start bitset (see
// wordStarts): the search hot path indexes last-hit slots and sequences with
// these values unchecked, so a corrupt position that slipped past the
// container checksum must be caught here rather than panic mid-search. Each
// check is one load, no walk; a run's coordinates only grow, so one past the
// span ends the run. starts holds each word's start in the position array
// and the array's end.
func (b *BlockIndex) readPositions(sr *dbase.StreamReader, valid []uint64, starts []uint32) error {
	b.flat = make([]uint16, starts[alphabet.NumWords])
	for w := range starts[:alphabet.NumWords] {
		offs := b.flat[starts[w]:starts[w+1]]
		if len(offs) == 0 {
			continue
		}
		page := b.lead(alphabet.Word(w))
		raw, err := sr.Next(2 * len(offs))
		if err != nil {
			return fmt.Errorf("positions: %w", err)
		}
		g, ok := uint32(0), true
		if page != NoLead {
			g, ok = decode(offs, raw, uint32(page)<<PageShift, valid)
		} else {
			_, row := b.Runs(alphabet.Word(w))
			for p := 0; ok && len(offs) > 0; p++ {
				n := b.RunLen(alphabet.Word(w), p, row)
				g, ok = decode(offs[:n], raw, uint32(p)<<PageShift, valid)
				offs, raw = offs[n:], raw[2*n:]
			}
		}
		if !ok {
			return fmt.Errorf("position %d of word %d is not a word start of the block (span %d)", g, w, b.Span())
		}
	}
	return nil
}

// decode fills dst from the little-endian halfwords of src, a run whose page
// starts at coordinate g, and returns the run's last coordinate — or, with
// false, the first that is not a word start.
func decode(dst []uint16, src []byte, g uint32, valid []uint64) (uint32, bool) {
	src = src[:2*len(dst)]
	for j := range dst {
		d := uint16(src[2*j]) | uint16(src[2*j+1])<<8
		g = Next(g, d)
		// The bitset's bits past the span are clear, so one bound check
		// covers both the array and the span.
		if int(g>>6) >= len(valid) || valid[g>>6]>>(g&63)&1 == 0 {
			return g, false
		}
		dst[j] = d
	}
	return g, true
}

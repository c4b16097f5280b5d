package dbindex

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/alphabet"
	"repro/internal/dbase"
)

// Index file format (little-endian):
//
//	magic "MUIX1\n"
//	int64 blockResidues
//	uvarint numBlocks
//	per block:
//	  uvarint start, end, residues, maxLen, pad
//	  offsets: NumWords+1 little-endian uint32 deltas (uvarint-encoded)
//	  uvarint numPositions, then raw little-endian uint32 positions
//
// Positions are block coordinates (see the package doc); segStart and the
// coarse table are rebuilt from the attached database on load.
//
// The database itself is serialized separately (dbase.WriteTo); on load the
// caller re-attaches it. The neighbor table is always rebuilt from the
// scoring matrix (cheap) rather than stored. Versioning and CRC32 checksums
// are layered on top by the blast container, which carries this stream as
// one section payload.

const ixMagic = "MUIX1\n"

// header returns the five block fields the stream carries before the
// block's offsets.
func (b *BlockIndex) header() [5]uint64 {
	return [5]uint64{
		uint64(b.Block.Start), uint64(b.Block.End),
		uint64(b.Block.Residues), uint64(b.Block.MaxLen), uint64(b.Pad),
	}
}

// EncodedSize returns the exact number of bytes WriteTo writes.
func (ix *Index) EncodedSize() int64 {
	n := int64(len(ixMagic) + 8 + dbase.UvarintLen(uint64(len(ix.Blocks))))
	for _, b := range ix.Blocks {
		for _, v := range b.header() {
			n += int64(dbase.UvarintLen(v))
		}
		prev := int32(0)
		for _, off := range b.offsets {
			n += int64(dbase.UvarintLen(uint64(off - prev)))
			prev = off
		}
		n += int64(dbase.UvarintLen(uint64(len(b.flat)))) + 4*int64(len(b.flat))
	}
	return n
}

// WriteTo serializes the index structure (not the database or neighbor
// table) in chunks; a block's positions go out as whole chunks of words.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	sw := dbase.NewStreamWriter(w)
	sw.String(ixMagic)
	sw.Uint64(uint64(ix.BlockResidues))
	sw.Uvarint(uint64(len(ix.Blocks)))
	for _, b := range ix.Blocks {
		for _, v := range b.header() {
			sw.Uvarint(v)
		}
		prev := int32(0)
		for _, off := range b.offsets {
			sw.Uvarint(uint64(off - prev))
			prev = off
		}
		sw.Uvarint(uint64(len(b.flat)))
		sw.Uint32s(b.flat)
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
// checked — block ranges against db, offsets for monotonicity, the padding
// against its 16-bit range, and, when db is non-nil, the block's residue count
// and longest sequence against the sequences themselves and every position
// against the word starts of the block — so a corrupt stream yields an error,
// never a panic, an OOM-scale allocation, or an index that searches wrongly.
// Without a db the result can be inspected but not searched: Decode and Span
// need the layout the sequences give.
func ReadFromLimit(r io.Reader, db *dbase.DB, maxBytes int64) (*Index, error) {
	if maxBytes < 0 {
		return nil, fmt.Errorf("dbindex: negative read limit %d", maxBytes)
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
	// Every block carries NumWords+1 offset deltas of at least one byte, so
	// the block count can never exceed the stream budget divided by that.
	if numBlocks > 1<<24 || int64(numBlocks) > maxBytes/int64(alphabet.NumWords)+1 {
		return nil, fmt.Errorf("dbindex: implausible block count %d", numBlocks)
	}
	readUvarint := func(what string) (uint64, error) {
		v, err := sr.Uvarint()
		if err != nil {
			return 0, fmt.Errorf("dbindex: %s: %w", what, err)
		}
		return v, nil
	}
	var valid []uint64 // word-start bitset, reused across blocks
	prevEnd := 0
	for i := uint64(0); i < numBlocks; i++ {
		var vals [5]uint64
		for j, what := range []string{"start", "end", "residues", "maxLen", "pad"} {
			if vals[j], err = readUvarint(what); err != nil {
				return nil, err
			}
		}
		for j, v := range vals {
			if v > 1<<62 {
				return nil, fmt.Errorf("dbindex: block %d field %d out of range (%d)", i, j, v)
			}
		}
		b := &BlockIndex{
			Block: dbase.Block{
				Start: int(vals[0]), End: int(vals[1]),
				Residues: int64(vals[2]), MaxLen: int(vals[3]),
			},
			offsets: make([]int32, alphabet.NumWords+1),
		}
		if vals[4] > maxPad {
			return nil, fmt.Errorf("dbindex: block %d padding %d out of range [0,%d]", i, vals[4], maxPad)
		}
		b.Pad = int(vals[4])
		if b.Block.Start > b.Block.End || b.Block.Start < prevEnd {
			return nil, fmt.Errorf("dbindex: block %d range [%d,%d) overlaps or is inverted (previous end %d)",
				i, b.Block.Start, b.Block.End, prevEnd)
		}
		if db != nil && b.Block.End > db.NumSeqs() {
			return nil, fmt.Errorf("dbindex: block %d range [%d,%d) invalid for db with %d seqs",
				i, b.Block.Start, b.Block.End, db.NumSeqs())
		}
		if db != nil {
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
		}
		prevEnd = b.Block.End
		prev := int64(0)
		for w := range b.offsets {
			d, err := readUvarint("offset delta")
			if err != nil {
				return nil, err
			}
			prev += int64(d)
			if prev > 1<<31-1 {
				return nil, fmt.Errorf("dbindex: block %d offset overflow at word %d", i, w)
			}
			b.offsets[w] = int32(prev)
		}
		numPos, err := readUvarint("position count")
		if err != nil {
			return nil, err
		}
		// Positions are stored raw at 4 bytes each; a claim past the stream
		// budget cannot be honest.
		if numPos > 1<<31 || int64(numPos) > maxBytes/4+1 {
			return nil, fmt.Errorf("dbindex: implausible position count %d", numPos)
		}
		if int64(numPos) != int64(b.offsets[alphabet.NumWords]) {
			return nil, fmt.Errorf("dbindex: block %d position count %d does not match offsets (%d)",
				i, numPos, b.offsets[alphabet.NumWords])
		}
		if db != nil {
			valid = b.wordStarts(db, valid)
		}
		if err := b.readPositions(sr, int(numPos), valid); err != nil {
			return nil, fmt.Errorf("dbindex: block %d: %w", i, err)
		}
		ix.Blocks = append(ix.Blocks, b)
	}
	if err := sr.End(); err != nil {
		return nil, fmt.Errorf("dbindex: after last block: %w", err)
	}
	return ix, nil
}

// wordStarts marks, in a bitset over the block's coordinates, every
// coordinate that starts a full W-letter word of a sequence of the block — a
// run of ones per sequence — reusing buf's storage. The result is never nil,
// even for a block without coordinates: nil means "do not check".
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

// readPositions decodes the block's numPos positions from the stream's
// chunks straight into its position array. With a word-start bitset (see
// wordStarts) it checks every position in the same pass: the search hot path
// indexes last-hit slots and sequences with these values unchecked, so a
// corrupt position that slipped past the container checksum must be caught
// here rather than panic mid-search. Each check is one load, no walk.
func (b *BlockIndex) readPositions(sr *dbase.StreamReader, numPos int, valid []uint64) error {
	b.flat = make([]uint32, numPos)
	for read := 0; read < numPos; {
		raw, err := sr.Words(numPos - read)
		if err != nil {
			return fmt.Errorf("positions: %w", err)
		}
		dst := b.flat[read : read+len(raw)/4]
		for j := range dst {
			p := binary.LittleEndian.Uint32(raw)
			raw = raw[4:]
			// The bitset's bits past the span are clear, so one bound
			// check covers both the array and the span.
			if w := int(p >> 6); valid != nil && (w >= len(valid) || valid[w]>>(p&63)&1 == 0) {
				return fmt.Errorf("position %d is not a word start of the block (span %d)", p, b.Span())
			}
			dst[j] = p
		}
		read += len(dst)
	}
	return nil
}

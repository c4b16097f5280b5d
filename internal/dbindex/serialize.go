package dbindex

import (
	"bufio"
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

// WriteTo serializes the index structure (not the database or neighbor table).
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var n int64
	var scratch [binary.MaxVarintLen64]byte
	write := func(p []byte) error {
		m, err := bw.Write(p)
		n += int64(m)
		return err
	}
	writeUvarint := func(v uint64) error {
		return write(scratch[:binary.PutUvarint(scratch[:], v)])
	}
	if err := write([]byte(ixMagic)); err != nil {
		return n, err
	}
	binary.LittleEndian.PutUint64(scratch[:8], uint64(ix.BlockResidues))
	if err := write(scratch[:8]); err != nil {
		return n, err
	}
	if err := writeUvarint(uint64(len(ix.Blocks))); err != nil {
		return n, err
	}
	for _, b := range ix.Blocks {
		for _, v := range []uint64{
			uint64(b.Block.Start), uint64(b.Block.End),
			uint64(b.Block.Residues), uint64(b.Block.MaxLen), uint64(b.Pad),
		} {
			if err := writeUvarint(v); err != nil {
				return n, err
			}
		}
		prev := int32(0)
		for _, off := range b.offsets {
			if err := writeUvarint(uint64(off - prev)); err != nil {
				return n, err
			}
			prev = off
		}
		if err := writeUvarint(uint64(len(b.flat))); err != nil {
			return n, err
		}
		var buf [4]byte
		for _, p := range b.flat {
			binary.LittleEndian.PutUint32(buf[:], p)
			if err := write(buf[:]); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
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
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(ixMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dbindex: reading magic: %w", err)
	}
	if string(magic) != ixMagic {
		return nil, fmt.Errorf("dbindex: bad magic %q", magic)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("dbindex: reading header: %w", err)
	}
	ix := &Index{DB: db, BlockResidues: int64(binary.LittleEndian.Uint64(hdr[:]))}
	numBlocks, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("dbindex: block count: %w", err)
	}
	// Every block carries NumWords+1 offset deltas of at least one byte, so
	// the block count can never exceed the stream budget divided by that.
	if numBlocks > 1<<24 || int64(numBlocks) > maxBytes/int64(alphabet.NumWords)+1 {
		return nil, fmt.Errorf("dbindex: implausible block count %d", numBlocks)
	}
	readUvarint := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("dbindex: %s: %w", what, err)
		}
		return v, nil
	}
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
		b.flat = make([]uint32, numPos)
		raw := make([]byte, 4*1024)
		read := 0
		for read < int(numPos) {
			chunk := int(numPos) - read
			if chunk > len(raw)/4 {
				chunk = len(raw) / 4
			}
			if _, err := io.ReadFull(br, raw[:chunk*4]); err != nil {
				return nil, fmt.Errorf("dbindex: block %d positions: %w", i, err)
			}
			for j := 0; j < chunk; j++ {
				b.flat[read+j] = binary.LittleEndian.Uint32(raw[j*4:])
			}
			read += chunk
		}
		if db != nil {
			if err := b.validatePositions(db); err != nil {
				return nil, fmt.Errorf("dbindex: block %d: %w", i, err)
			}
		}
		ix.Blocks = append(ix.Blocks, b)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return nil, fmt.Errorf("dbindex: after last block: %w", err)
		}
		return nil, fmt.Errorf("dbindex: trailing garbage after last block")
	}
	return ix, nil
}

// validatePositions checks that every position is the start of a full
// W-letter word of a sequence of the block. The search hot path indexes
// last-hit slots and sequences with these values unchecked, so a corrupt
// position that slipped past the container checksum must be caught here
// rather than panic mid-search. The word starts are marked in a bitset over
// the block's coordinates, a run of ones per sequence, so each position costs
// one load and no walk.
func (b *BlockIndex) validatePositions(db *dbase.DB) error {
	span := b.Span()
	valid := make([]uint64, (span+63)/64)
	for l := 0; l < b.Block.NumSeqs(); l++ {
		lo := int(b.segStart[l])
		hi := lo + len(db.Seqs[b.Block.Start+l].Data) - alphabet.W + 1 // one past the last word start
		for lo < hi {
			n := min(hi-lo, 64-lo&63)
			valid[lo>>6] |= (^uint64(0) >> (64 - n)) << (lo & 63)
			lo += n
		}
	}
	for _, p := range b.flat {
		if int64(p) >= int64(span) || valid[p>>6]>>(p&63)&1 == 0 {
			return fmt.Errorf("position %d is not a word start of the block (span %d)", p, span)
		}
	}
	return nil
}

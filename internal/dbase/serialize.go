package dbase

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/alphabet"
)

// Binary database format:
//
//	magic "MUDB1\n"
//	uvarint numSeqs
//	per sequence: uvarint nameLen, name bytes, uvarint seqLen, residue codes
//
// Residue codes are stored raw (one byte each, values < 24). The format is
// deliberately simple: it is one section payload of the blast container,
// which layers versioning and CRC32 checksums on top.

const dbMagic = "MUDB1\n"

// EncodedSize returns the exact number of bytes WriteTo writes.
func (db *DB) EncodedSize() int64 {
	n := int64(len(dbMagic) + uvarintLen(uint64(len(db.Seqs))))
	for i := range db.Seqs {
		s := &db.Seqs[i]
		n += int64(uvarintLen(uint64(len(s.Name))) + len(s.Name) + uvarintLen(uint64(len(s.Data))) + len(s.Data))
	}
	return n
}

// WriteTo serializes the database in chunks.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	sw := newStreamWriter(w)
	sw.String(dbMagic)
	sw.Uvarint(uint64(len(db.Seqs)))
	for i := range db.Seqs {
		s := &db.Seqs[i]
		sw.Uvarint(uint64(len(s.Name)))
		sw.String(s.Name)
		sw.Uvarint(uint64(len(s.Data)))
		sw.Bytes(s.Data)
	}
	return sw.Flush()
}

// firstInvalidCode returns the index of the first byte of data that is not a
// residue code, or -1. It tests eight bytes at a time: a byte b is a code
// when b < 128 and b + (128 - Size) < 128, and neither sum carries into the
// next byte.
func firstInvalidCode(data []alphabet.Code) int {
	const high = 0x8080808080808080
	const bias = (0x80 - alphabet.Size) * 0x0101010101010101
	i := 0
	for ; i+8 <= len(data); i += 8 {
		if x := binary.LittleEndian.Uint64(data[i:]); (x|(x&^high+bias))&high != 0 {
			break
		}
	}
	for ; i < len(data); i++ {
		if int(data[i]) >= alphabet.Size {
			return i
		}
	}
	return -1
}

// ReadFrom deserializes a database written by WriteTo. The stream must
// contain exactly one serialized database: trailing bytes are an error.
func ReadFrom(r io.Reader) (*DB, error) {
	return ReadFromLimit(r, 1<<62)
}

// ReadFromLimit is ReadFrom with an allocation budget: every length claimed
// by the stream is validated against maxBytes (normally the section size the
// caller knows from its framing) before anything is allocated, so a corrupt
// or hostile stream cannot trigger an allocation much larger than itself.
func ReadFromLimit(r io.Reader, maxBytes int64) (*DB, error) {
	if maxBytes < 0 {
		return nil, fmt.Errorf("dbase: negative read limit %d", maxBytes)
	}
	sr := newStreamReader(r, maxBytes)
	magic, err := sr.Next(len(dbMagic))
	if err != nil {
		return nil, fmt.Errorf("dbase: reading magic: %w", err)
	}
	if string(magic) != dbMagic {
		return nil, fmt.Errorf("dbase: bad magic %q", magic)
	}
	numSeqs, err := sr.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("dbase: reading sequence count: %w", err)
	}
	// Each sequence costs at least two uvarint bytes, so the count can never
	// exceed half the stream budget.
	if numSeqs > 1<<30 || int64(numSeqs) > maxBytes/2+1 {
		return nil, fmt.Errorf("dbase: implausible sequence count %d", numSeqs)
	}
	db := &DB{Seqs: make([]Sequence, numSeqs)}
	for i := range db.Seqs {
		nameLen, err := sr.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("dbase: seq %d name length: %w", i, err)
		}
		if nameLen > 1<<20 || int64(nameLen) > maxBytes {
			return nil, fmt.Errorf("dbase: seq %d implausible name length %d", i, nameLen)
		}
		name, err := sr.Next(int(nameLen))
		if err != nil {
			return nil, fmt.Errorf("dbase: seq %d name: %w", i, err)
		}
		db.Seqs[i] = Sequence{ID: i, Name: string(name)}
		seqLen, err := sr.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("dbase: seq %d length: %w", i, err)
		}
		if seqLen > 1<<28 || int64(seqLen) > maxBytes {
			return nil, fmt.Errorf("dbase: seq %d implausible length %d", i, seqLen)
		}
		raw, err := sr.Next(int(seqLen))
		if err != nil {
			return nil, fmt.Errorf("dbase: seq %d data: %w", i, err)
		}
		if j := firstInvalidCode(raw); j >= 0 {
			return nil, fmt.Errorf("dbase: seq %d position %d: invalid code %d", i, j, raw[j])
		}
		db.Seqs[i].Data = make([]alphabet.Code, seqLen)
		copy(db.Seqs[i].Data, raw)
		db.TotalResidues += int64(seqLen)
	}
	if err := sr.End(); err != nil {
		return nil, fmt.Errorf("dbase: after last sequence: %w", err)
	}
	return db, nil
}

// Package hit defines the pair record exchanged between hit detection, hit
// reordering, and ungapped extension, and the packed 32-bit key the paper
// sorts on (Section IV-A): subject sequence id in the high bits, diagonal id
// in the low bits, so one sort pass orders pairs by sequence and diagonal at
// once. Only the query offset and the distance back to the pair's first hit
// are stored alongside the key, packed into one word; the subject offset is
// recomputed from the diagonal when needed.
package hit

import "fmt"

// Pair is a two-hit pair selected for ungapped extension, recorded as its
// second hit: the packed (sequence, diagonal) key, and in QOff the query
// offset where that hit's word starts (the low OffBits bits, see Off) with
// the distance back to the first hit above it (see Dist). The extension
// reads the distance — it walks right only if the left walk reaches the
// first hit's word — and a two-hit window bounds it, so it rides in the
// offset's spare bits: a pair is 8 bytes through the sort, not the paper's
// 12 (key, offset, distance).
type Pair struct {
	Key  uint32
	QOff int32
}

// OffBits is the width of a pair's query offset: the detection loop records
// offsets of at most 1<<20 - 1 (search.MaxQOff).
const OffBits = 20

// MaxWindow is the widest two-hit window whose distances (< window) fit in
// QOff's bits above the offset.
const MaxWindow = 1 << (31 - OffBits)

// NewPair returns the record of a pair whose second hit is at query offset
// qOff, in [0, 1<<OffBits), and whose first hit lies dist offsets before it,
// dist in [0, MaxWindow).
func NewPair(key uint32, qOff, dist int32) Pair {
	return Pair{Key: key, QOff: dist<<OffBits | qOff}
}

// Off returns the query offset of the pair's second hit.
func (p Pair) Off() int32 { return p.QOff & (1<<OffBits - 1) }

// Dist returns the distance from the pair's first hit to its second.
func (p Pair) Dist() int32 { return p.QOff >> OffBits }

// SortKey returns the radix key of the pair.
func (p Pair) SortKey() uint32 { return p.Key }

// KeyCoder packs and unpacks (sequence, diagonal) keys for one
// (index block, query) combination. The diagonal field width is chosen per
// block so that blocks with short sequences spend fewer bits on diagonals
// and leave more for sequence ids.
type KeyCoder struct {
	DiagBits uint32
	NumSeqs  int
	NumDiags int
}

// NewKeyCoder sizes the key fields for a block with numSeqs sequences and at
// most numDiags diagonals per sequence (numDiags = maxSubjectLen + queryLen
// is always sufficient). It fails if the two fields cannot share 32 bits,
// which the index builder treats as "make the blocks smaller".
func NewKeyCoder(numSeqs, numDiags int) (KeyCoder, error) {
	if numSeqs <= 0 || numDiags <= 0 {
		return KeyCoder{}, fmt.Errorf("hit: invalid key space %d seqs x %d diags", numSeqs, numDiags)
	}
	diagBits := uint32(bitsFor(numDiags))
	seqBits := uint32(bitsFor(numSeqs))
	if diagBits+seqBits > 32 {
		return KeyCoder{}, fmt.Errorf("hit: key space %d seqs x %d diags needs %d bits > 32",
			numSeqs, numDiags, diagBits+seqBits)
	}
	return KeyCoder{DiagBits: diagBits, NumSeqs: numSeqs, NumDiags: numDiags}, nil
}

// bitsFor returns the number of bits needed to represent values 0..n-1.
func bitsFor(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}

// Encode packs a (sequence, diagonal) pair. Arguments must be in range; this
// is the hot path, so validation is reserved for tests (see EncodeChecked).
func (k KeyCoder) Encode(seq, diag int) uint32 {
	return uint32(seq)<<k.DiagBits | uint32(diag)
}

// EncodeChecked is Encode with range validation, for tests and debugging.
func (k KeyCoder) EncodeChecked(seq, diag int) (uint32, error) {
	if seq < 0 || seq >= k.NumSeqs {
		return 0, fmt.Errorf("hit: sequence %d out of range [0,%d)", seq, k.NumSeqs)
	}
	if diag < 0 || diag >= k.NumDiags {
		return 0, fmt.Errorf("hit: diagonal %d out of range [0,%d)", diag, k.NumDiags)
	}
	return k.Encode(seq, diag), nil
}

// Decode unpacks a key into its (sequence, diagonal) pair.
func (k KeyCoder) Decode(key uint32) (seq, diag int) {
	return int(key >> k.DiagBits), int(key & (1<<k.DiagBits - 1))
}

// KeyBits returns the number of significant bits in keys from this coder,
// which bounds the number of radix passes the sort needs.
func (k KeyCoder) KeyBits() int {
	return bitsFor(k.NumSeqs) + int(k.DiagBits)
}

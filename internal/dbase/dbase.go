// Package dbase holds the subject-sequence database and implements the data
// organization the paper builds on: sorting sequences by length, slicing the
// sorted database into index blocks of bounded residue count (Section III),
// round-robin partitioning across nodes (Section IV-D3), and Orion-style
// splitting of extremely long sequences (Section IV-A).
package dbase

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/alphabet"
	"repro/internal/fasta"
)

// Sequence is one database subject sequence.
type Sequence struct {
	ID   int    // position in DB.Seqs; stable handle used in results
	Name string // display name (FASTA id or synthetic)
	Data []alphabet.Code
}

// Len returns the sequence length in residues.
func (s *Sequence) Len() int { return len(s.Data) }

// DB is an in-memory protein sequence database.
type DB struct {
	Seqs          []Sequence
	TotalResidues int64
}

// New builds a database from encoded sequences, assigning synthetic names.
func New(seqs [][]alphabet.Code) *DB {
	db := &DB{Seqs: make([]Sequence, len(seqs))}
	for i, s := range seqs {
		db.Seqs[i] = Sequence{ID: i, Name: fmt.Sprintf("seq%06d", i), Data: s}
		db.TotalResidues += int64(len(s))
	}
	return db
}

// FromRecords builds a database from FASTA records, encoding residues.
func FromRecords(recs []*fasta.Record) (*DB, error) {
	db := &DB{Seqs: make([]Sequence, len(recs))}
	for i, r := range recs {
		data, err := alphabet.Encode(r.Seq)
		if err != nil {
			return nil, fmt.Errorf("dbase: record %q: %w", r.ID, err)
		}
		db.Seqs[i] = Sequence{ID: i, Name: r.ID, Data: data}
		db.TotalResidues += int64(len(data))
	}
	return db, nil
}

// NumSeqs returns the number of sequences.
func (db *DB) NumSeqs() int { return len(db.Seqs) }

// SortByLength stably sorts sequences by ascending length and renumbers IDs
// to match the new order (the name keeps the original identity). The paper
// sorts the database by length before blocking so every block holds
// sequences of similar length, which equalizes diagonal counts and makes
// the radix-sort key width uniform (Section IV-B).
//
// It sorts keys, not sequences: a Sequence is 48 bytes, and a comparison
// sort moves each one many times. Each key is a sequence's length above its
// position; the keys are distinct, so any sort of them is stable, and their
// low halves are the permutation, which moves each sequence once, along its
// cycles.
func (db *DB) SortByLength() {
	keys := make([]uint64, len(db.Seqs))
	for i := range db.Seqs {
		keys[i] = uint64(len(db.Seqs[i].Data))<<32 | uint64(i)
	}
	slices.Sort(keys)
	// Position i takes the sequence at from(i); a placed position's key
	// becomes its own position.
	from := func(i int) int { return int(uint32(keys[i])) }
	for i := range keys {
		if from(i) == i {
			continue
		}
		first := db.Seqs[i]
		j := i
		for from(j) != i {
			k := from(j)
			db.Seqs[j], keys[j] = db.Seqs[k], uint64(j)
			j = k
		}
		db.Seqs[j], keys[j] = first, uint64(j)
	}
	for i := range db.Seqs {
		db.Seqs[i].ID = i
	}
}

// IsSortedByLength reports whether sequences are in ascending length order.
func (db *DB) IsSortedByLength() bool {
	return slices.IsSortedFunc(db.Seqs, byLength)
}

func byLength(a, b Sequence) int { return cmp.Compare(len(a.Data), len(b.Data)) }

// Block identifies a contiguous run of sequences that one index block
// covers. Local sequence ids inside the block are 0..(End-Start-1); the
// database index stores local ids to save bits (Section III).
type Block struct {
	Start    int   // first sequence index (inclusive)
	End      int   // last sequence index (exclusive)
	Residues int64 // total residues of sequences in the block
	MaxLen   int   // longest sequence in the block; bounds diagonal count
}

// NumSeqs returns the number of sequences the block covers.
func (b Block) NumSeqs() int { return b.End - b.Start }

// Blocks partitions the database into index blocks of at most maxResidues
// residues each, never cutting a sequence: a sequence that would exceed the
// boundary starts the next block (Section III, Fig 3a). A sequence longer
// than maxResidues gets a block of its own.
func (db *DB) Blocks(maxResidues int64) []Block {
	if maxResidues <= 0 {
		panic("dbase: Blocks requires maxResidues > 0")
	}
	var blocks []Block
	cur := Block{Start: 0}
	for i := range db.Seqs {
		l := int64(len(db.Seqs[i].Data))
		if cur.Residues > 0 && cur.Residues+l > maxResidues {
			cur.End = i
			blocks = append(blocks, cur)
			cur = Block{Start: i}
		}
		cur.Residues += l
		if len(db.Seqs[i].Data) > cur.MaxLen {
			cur.MaxLen = len(db.Seqs[i].Data)
		}
	}
	if cur.Residues > 0 || len(db.Seqs) == 0 {
		cur.End = len(db.Seqs)
		if cur.NumSeqs() > 0 {
			blocks = append(blocks, cur)
		}
	}
	return blocks
}

// Partitions distributes sequence indices of the length-sorted database over
// n partitions in round-robin order, the paper's inter-node partitioning:
// every partition receives nearly the same number of sequences following a
// similar length distribution, so per-query work per node is balanced
// (Section IV-D3). The database should be length-sorted first; Partitions
// does not sort.
func (db *DB) Partitions(n int) [][]int {
	if n <= 0 {
		panic("dbase: Partitions requires n > 0")
	}
	parts := make([][]int, n)
	for i := range db.Seqs {
		p := i % n
		parts[p] = append(parts[p], i)
	}
	return parts
}

// ContiguousPartitions splits the sequence indices into n contiguous chunks
// of near-equal sequence count. On a length-sorted database this is the
// *bad* partitioning — all long sequences land in the last partition — and
// exists as the ablation baseline for the round-robin scheme.
func (db *DB) ContiguousPartitions(n int) [][]int {
	if n <= 0 {
		panic("dbase: ContiguousPartitions requires n > 0")
	}
	parts := make([][]int, n)
	total := len(db.Seqs)
	for p := 0; p < n; p++ {
		lo := p * total / n
		hi := (p + 1) * total / n
		for i := lo; i < hi; i++ {
			parts[p] = append(parts[p], i)
		}
	}
	return parts
}

// Subset builds a new database containing the given sequences (by index),
// preserving names. IDs are renumbered to the new positions.
func (db *DB) Subset(indices []int) *DB {
	out := &DB{Seqs: make([]Sequence, len(indices))}
	for i, idx := range indices {
		s := db.Seqs[idx]
		out.Seqs[i] = Sequence{ID: i, Name: s.Name, Data: s.Data}
		out.TotalResidues += int64(len(s.Data))
	}
	return out
}

// SplitOrigin records where a split chunk came from so alignments can be
// mapped back to original-sequence coordinates.
type SplitOrigin struct {
	OrigIndex int // index of the source sequence in the pre-split database
	Offset    int // chunk start within the source sequence
}

// SplitLong replaces sequences longer than maxLen with overlapping chunks of
// at most maxLen residues (overlap residues shared between adjacent chunks),
// the method the paper borrows from Orion for ~40k-residue sequences
// (Section IV-A). It returns the new database and, for every new sequence,
// its origin. Chunk names get a "#<offset>" suffix.
func SplitLong(db *DB, maxLen, overlap int) (*DB, []SplitOrigin) {
	if maxLen <= overlap {
		panic("dbase: SplitLong requires maxLen > overlap")
	}
	out := &DB{}
	var origins []SplitOrigin
	for i := range db.Seqs {
		s := &db.Seqs[i]
		if len(s.Data) <= maxLen {
			out.Seqs = append(out.Seqs, Sequence{ID: len(out.Seqs), Name: s.Name, Data: s.Data})
			out.TotalResidues += int64(len(s.Data))
			origins = append(origins, SplitOrigin{OrigIndex: i})
			continue
		}
		step := maxLen - overlap
		for off := 0; ; off += step {
			end := off + maxLen
			last := false
			if end >= len(s.Data) {
				end = len(s.Data)
				last = true
			}
			chunk := s.Data[off:end]
			out.Seqs = append(out.Seqs, Sequence{
				ID:   len(out.Seqs),
				Name: fmt.Sprintf("%s#%d", s.Name, off),
				Data: chunk,
			})
			out.TotalResidues += int64(len(chunk))
			origins = append(origins, SplitOrigin{OrigIndex: i, Offset: off})
			if last {
				break
			}
		}
	}
	return out, origins
}

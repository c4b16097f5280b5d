package dbase

import (
	"cmp"
	"slices"
)

// MergeOrder computes the stable ascending-length merge of several databases,
// each of which must already be in ascending length order (the container
// format guarantees it). It returns one rank table per input database:
// out[t][j] is the position sequence j of database t occupies in the merged
// order. Ties between equal-length sequences go to the lower-indexed
// database, and within one database input order is preserved — exactly what
// a stable SortByLength over the concatenation (database 0's sequences, then
// database 1's, ...) produces. This is the identity that lets a base
// container plus ordered delta containers reproduce, sequence for sequence,
// the id space of a from-scratch rebuild over the same input order.
func MergeOrder(dbs []*DB) [][]int {
	total := 0
	for _, db := range dbs {
		total += db.NumSeqs()
	}
	type ent struct {
		length, tier, pos int
	}
	ents := make([]ent, 0, total)
	for t, db := range dbs {
		for j := range db.Seqs {
			ents = append(ents, ent{length: len(db.Seqs[j].Data), tier: t, pos: j})
		}
	}
	slices.SortFunc(ents, func(a, b ent) int {
		return cmp.Or(cmp.Compare(a.length, b.length), cmp.Compare(a.tier, b.tier), cmp.Compare(a.pos, b.pos))
	})
	out := make([][]int, len(dbs))
	for t, db := range dbs {
		out[t] = make([]int, db.NumSeqs())
	}
	for rank, e := range ents {
		out[e.tier][e.pos] = rank
	}
	return out
}

// Merged concatenates the databases in the MergeOrder ranking: the returned
// database holds every input sequence at the position order[tier][pos]
// assigns it, with IDs renumbered to match. Names are preserved. The result
// is in ascending length order and byte-identical, sequence for sequence, to
// sorting the concatenation of the inputs — the database a compaction pass
// hands to the index builder.
func Merged(dbs []*DB, order [][]int) *DB {
	total := 0
	for _, db := range dbs {
		total += db.NumSeqs()
	}
	out := &DB{Seqs: make([]Sequence, total)}
	for t, db := range dbs {
		for j := range db.Seqs {
			rank := order[t][j]
			out.Seqs[rank] = Sequence{ID: rank, Name: db.Seqs[j].Name, Data: db.Seqs[j].Data}
		}
		out.TotalResidues += db.TotalResidues
	}
	return out
}

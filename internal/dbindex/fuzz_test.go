package dbindex

import (
	"bytes"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/dbase"
	"repro/internal/seqgen"
)

// FuzzReadFrom: arbitrary bytes must never panic the index deserializer or
// drive an allocation much larger than the input, and anything it accepts
// must satisfy the invariants the unchecked search hot path depends on
// (block ranges inside the database, every packed position decoding to a
// real word start).
//
// The input names the database to load against (modulo the fixtures): a
// few uniprot-like sequences in small blocks, runsBlock's dense block, or
// pagedIndex's block of more than NoLead pages, each seeded with its index.
func FuzzReadFrom(f *testing.F) {
	g := seqgen.New(seqgen.UniprotProfile(), 5)
	small, err := Build(dbase.New(g.Database(6)), nbr(), 512)
	if err != nil {
		f.Fatal(err)
	}
	fixtures := []*Index{small, runsBlock(f), pagedIndex(f)}
	streams := make([][]byte, len(fixtures))
	for i, ix := range fixtures {
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		streams[i] = buf.Bytes()
	}
	valid := streams[0]
	f.Add(uint8(0), valid)
	f.Add(uint8(0), valid[:len(valid)/2])
	f.Add(uint8(0), []byte(ixMagic))
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), streams[1])
	f.Add(uint8(2), streams[2])
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		db := fixtures[int(which)%len(fixtures)].DB
		got, err := ReadFromLimit(bytes.NewReader(data), db, int64(len(data)))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, b := range got.Blocks {
			if b.Block.Start < 0 || b.Block.End > db.NumSeqs() || b.Block.Start > b.Block.End {
				t.Fatalf("accepted block range [%d,%d) for db with %d seqs", b.Block.Start, b.Block.End, db.NumSeqs())
			}
			for w := alphabet.Word(0); w < alphabet.NumWords; w++ {
				for _, p := range b.Positions(w) {
					local, off := b.Decode(p)
					seq := b.Seq(db, local) // must not panic
					if off+alphabet.W > seq.Len() {
						t.Fatalf("accepted position %#x past end of %d-residue sequence", p, seq.Len())
					}
				}
			}
		}
	})
}

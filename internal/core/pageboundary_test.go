package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/dbase"
	"repro/internal/dbindex"
)

// The index cuts a block's coordinate axis into pages of 1<<16 and stores a
// position in 16 bits: a run's first as its offset in its page, every later
// one as its distance from the one before (see dbindex). The cases below put
// hits where that is tightest — pairs whose two hits sit on either side of a
// page boundary, a word whose runs skip a page, blocks that end exactly at a
// boundary or one coordinate past it — and hold both slot widths and the
// db-indexed baseline to the replay of checkBlockDiagonal.

// randomSeq returns n residues drawn from letters.
func randomSeq(rng *rand.Rand, n int, letters string) []alphabet.Code {
	codes := alphabet.MustEncode(letters)
	s := make([]alphabet.Code, n)
	for i := range s {
		s[i] = codes[rng.Intn(len(codes))]
	}
	return s
}

// planted returns s with q copied in at offset at.
func planted(s, q []alphabet.Code, at int) []alphabet.Code {
	s = bytes.Clone(s)
	copy(s[at:], q)
	return s
}

const proteinLetters = "ACDEFGHIKLMNPQRSTVWY"

func TestPageBoundaryPairs(t *testing.T) {
	const window = 40
	pad := window - alphabet.W
	rng := rand.New(rand.NewSource(28))
	q := randomSeq(rng, 60, proteinLetters)
	page := 1 << dbindex.PageShift

	// The second sequence straddles the boundary, and a copy of the query in
	// it puts the boundary in the middle of the copy's diagonal: hits pair
	// across it.
	first := randomSeq(rng, 40_000, proteinLetters)
	at := page - (len(first) + pad) - len(q)/2
	straddling := planted(randomSeq(rng, 50_000, proteinLetters), q, at)

	// A word whose positions skip a page: the middle sequence covers page 1
	// and has no W, so it holds no neighbour of WWW, which the query has and
	// the sequences on either side hold, the first at its end and the last
	// at its start. (The index orders a block's sequences by length.)
	www := alphabet.MustEncode("WWW")
	wq := planted(q, www, 20)
	before := planted(randomSeq(rng, 60_000, proteinLetters), wq, 60_000-len(wq))
	middle := randomSeq(rng, 72_000, "ACDEFGHIKLMNPQRSTVY")
	after := planted(randomSeq(rng, 73_000, proteinLetters), wq, 10)

	// Blocks of exactly one page and one coordinate past it, with the query
	// copied into the last residues; and a second sequence that starts
	// exactly at the boundary.
	exact := planted(randomSeq(rng, page-pad, proteinLetters), q, page-pad-len(q))
	past := planted(randomSeq(rng, page-pad+1, proteinLetters), q, page-pad+1-len(q))
	atBoundary := planted(randomSeq(rng, 70_000, proteinLetters), q, 0)

	for _, tc := range []struct {
		name  string
		seqs  [][]alphabet.Code
		q     []alphabet.Code
		pages int
		runs  []alphabet.Code // a word whose positions are several runs
	}{
		{"pair across a boundary", [][]alphabet.Code{first, straddling}, q, 2, nil},
		{"word absent from a middle page", [][]alphabet.Code{before, middle, after}, wq, 4, www},
		{"block of 65536 coordinates", [][]alphabet.Code{exact}, q, 1, nil},
		{"block of 65537 coordinates", [][]alphabet.Code{past}, q, 2, nil},
		{"sequence starting at a boundary", [][]alphabet.Code{exact, atBoundary}, q, 3, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkBlockDiagonal(t, tc.seqs, tc.q, window)
			ix, err := dbindex.BuildWindow(dbase.New(tc.seqs), cfgShared(t).Neighbors, 1<<30, window)
			if err != nil {
				t.Fatal(err)
			}
			b := ix.Blocks[0]
			if got := b.Pages(); got != tc.pages {
				t.Errorf("block spans %d pages, want %d (span %d)", got, tc.pages, b.Span())
			}
			if tc.runs != nil {
				if _, _, one := b.Lead(alphabet.WordAt(tc.runs, 0)); one {
					t.Errorf("word %s is one run", alphabet.WordAt(tc.runs, 0))
				}
			}
		})
	}
}

// FuzzPageBoundaryEquivalence lets the fuzzer place a page boundary: byte 0
// picks the window, bytes 1-2 how far into the second sequence the boundary
// falls, and the rest is the query, copied into the second sequence across
// the boundary, each byte a residue. The first sequence is fixed random
// residues that end just short of the boundary.
func FuzzPageBoundaryEquivalence(f *testing.F) {
	for wi := range blockDiagWindows {
		f.Add([]byte{byte(wi), 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
		f.Add([]byte{byte(wi), 30, 0, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	}
	f.Add([]byte{2, 255, 3, 17, 17, 17, 17, 17, 1, 2, 17, 17, 17})
	letters := alphabet.MustEncode(proteinLetters)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3+alphabet.W || len(data) > 3+64 {
			return
		}
		window := blockDiagWindows[int(data[0])%len(blockDiagWindows)]
		pad := window - alphabet.W
		into := int(binary.LittleEndian.Uint16(data[1:3])) % 1024
		q := make([]alphabet.Code, len(data)-3)
		for i, c := range data[3:] {
			q[i] = letters[int(c)%len(letters)]
		}
		rng := rand.New(rand.NewSource(int64(window)))
		first := randomSeq(rng, 1<<dbindex.PageShift-pad-into, proteinLetters)
		second := randomSeq(rng, 2048, proteinLetters)
		second = planted(second, q, max(into-len(q)/2, 0))
		checkBlockDiagonal(t, [][]alphabet.Code{first, second}, q, window)
	})
}

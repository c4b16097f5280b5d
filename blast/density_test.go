package blast

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/baseline"
)

// TestDensePositions: a block where one word fills whole pages of the
// coordinate axis — runs of tens of thousands of positions, past what the
// index's 8-bit run lengths hold and, for one 200 000-residue sequence, a
// full page of 65 536 — must index, Save/Load to the same bytes and search
// exactly like a from-scratch database and like the query-indexed engine,
// which reads no index at all.
func TestDensePositions(t *testing.T) {
	polyA := func(n int) string { return strings.Repeat("A", n) }
	long := []Sequence{{Name: "polyA", Residues: polyA(200_000)}}
	var many []Sequence
	for i := 0; i < 13; i++ {
		many = append(many, Sequence{Name: nameFor(i), Residues: polyA(10_000)})
	}
	// Two runs of A more than a page apart, each longer than a page.
	apart := []Sequence{
		{Name: "a1", Residues: polyA(70_000)},
		{Name: "c", Residues: strings.Repeat("C", 70_001)},
		{Name: "a2", Residues: polyA(80_000)},
	}
	queries := []string{
		"MKTAYIAKQRAAAAAAAAGSWLE", // a run of A, scoring under the trigger
		"MKTAYIAKQRQISFVKSHFSRQ",
		"AAA",
		// Past the compact last-hit word's offsets: the general scan.
		strings.Repeat("MKTAYIAKQRQISFVKSHFSRQ", 50) + "AAAAAAAA",
	}
	for _, tc := range []struct {
		name  string
		seqs  []Sequence
		split int
	}{
		{"one 200000-residue sequence, unsplit", long, -1},
		{"13 sequences of 10000, default split", many, 0},
		{"two runs a page apart", apart, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			p.SplitLongerThan = tc.split
			p.BlockResidues = 1 << 20
			fresh, err := NewDatabase(tc.seqs, p)
			if err != nil {
				t.Fatal(err)
			}
			art := saved(t, fresh)
			loaded, err := Load(bytes.NewReader(art), p)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if again := saved(t, loaded); !bytes.Equal(again, art) {
				t.Fatal("Load then Save wrote different bytes")
			}
			assertSameAsMonolithic(t, "loaded", searchCtx(t, loaded, queries), searchCtx(t, fresh, queries))

			part := loaded.parts[0]
			reference := baseline.NewQueryIndexed(loaded.cfg, part.db)
			enc := make([][]alphabet.Code, len(queries))
			for qi, query := range queries {
				enc[qi] = alphabet.MustEncode(query)
			}
			results := part.mu.SearchBatch(enc, 1)
			for qi, q := range enc {
				got, want := results[qi], reference.Search(qi, q)
				if got.Stats.Hits != want.Stats.Hits || got.Stats.Pairs != want.Stats.Pairs || len(got.HSPs) != len(want.HSPs) {
					t.Errorf("query %d: %d hits %d pairs %d HSPs, query-indexed %d hits %d pairs %d HSPs", qi,
						got.Stats.Hits, got.Stats.Pairs, len(got.HSPs), want.Stats.Hits, want.Stats.Pairs, len(want.HSPs))
				}
			}
		})
	}
}

package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/baseline"
	"repro/internal/dbase"
	"repro/internal/dbindex"
	"repro/internal/hit"
	"repro/internal/search"
	"repro/internal/ungapped"
)

// The detection scan keeps one last-hit slot per diagonal of the whole block
// and relies on the index's padding to keep neighbouring sequences from
// reading each other's stored hits (see detectPrefiltered). The random
// identity suites would catch a gross failure of that; the tests below aim at
// where it is tightest: one-block databases of low-complexity sequences whose
// hits fill every diagonal, with lengths around the word length and the
// window, so that the last hit of one sequence and the first of the next sit
// exactly pad + W apart on a shared block diagonal.

// slotWidths are detectScan's two instantiations. A test runs each on every
// (block, query) task whose offsets its slots hold, whatever length
// detectPrefiltered would pick it for.
var slotWidths = []struct {
	name    string
	maxQOff int
	detect  func(e *Engine, sc *scratch, q []alphabet.Code, bi int, coder hit.KeyCoder, st *search.Stats)
}{
	{"uint16", search.MaxQOff16, func(e *Engine, sc *scratch, q []alphabet.Code, bi int, coder hit.KeyCoder, st *search.Stats) {
		detectScan(e, sc, &sc.lastPos16, q, bi, coder, st)
	}},
	{"uint32", search.MaxQOff, func(e *Engine, sc *scratch, q []alphabet.Code, bi int, coder hit.KeyCoder, st *search.Stats) {
		detectScan(e, sc, &sc.lastPos32, q, bi, coder, st)
	}},
}

// replayPairs is the detection oracle for one block whose sequences are seqs,
// in local order: a direct replay of ungapped.Canon.PairCheck over
// per-(sequence, diagonal) state, hits in scan order (query offset major),
// from the subjects' residues rather than the index. It returns the (query
// offset, first-hit distance) of each pair by key, and the hit and pair
// counts.
func replayPairs(cfg *search.Config, seqs []dbase.Sequence, q []alphabet.Code, coder hit.KeyCoder, numDiags int) (want map[uint32][][2]int32, hits, pairs int64) {
	type pos struct{ l, sOff int }
	at := map[alphabet.Word][]pos{}
	for l := range seqs {
		s := seqs[l].Data
		for sOff := 0; sOff+alphabet.W <= len(s); sOff++ {
			w := alphabet.WordAt(s, sOff)
			at[w] = append(at[w], pos{l, sOff})
		}
	}
	canon := ungapped.Canon{P: cfg.TwoHit}
	states := make([]ungapped.DiagState, len(seqs)*numDiags)
	for i := range states {
		states[i].Reset()
	}
	diagBias := len(q) - alphabet.W
	want = map[uint32][][2]int32{}
	for qOff := 0; qOff+alphabet.W <= len(q); qOff++ {
		for _, v := range cfg.Neighbors.Append(nil, alphabet.WordAt(q, qOff)) {
			for _, p := range at[v] {
				hits++
				diag := p.sOff - qOff + diagBias
				d := &states[p.l*numDiags+diag]
				dist := int32(qOff) - d.LastPos
				if canon.PairCheck(d, qOff) {
					pairs++
					key := coder.Encode(p.l, diag)
					want[key] = append(want[key], [2]int32{int32(qOff), dist})
				}
			}
		}
	}
	return want, hits, pairs
}

// checkPairs requires the pair buffer of one detection pass to be what
// replayPairs says: the same hit and pair counts, and per (subject, diagonal)
// the same pairs with the same first-hit distances, in offset order.
func checkPairs(t *testing.T, label string, seqs []dbase.Sequence, coder hit.KeyCoder, diagBias int, pairs []hit.Pair, st search.Stats, want map[uint32][][2]int32, wantHits, wantPairs int64) {
	t.Helper()
	if st.Hits != wantHits || st.Pairs != wantPairs {
		t.Errorf("%s: %d hits %d pairs, replay %d hits %d pairs", label, st.Hits, st.Pairs, wantHits, wantPairs)
	}
	got := map[uint32][][2]int32{}
	for _, p := range pairs {
		got[p.Key] = append(got[p.Key], [2]int32{p.Off(), p.Dist()})
	}
	for key, offs := range got {
		if !slices.Equal(offs, want[key]) {
			l, d := coder.Decode(key)
			t.Fatalf("%s: subject %d (length %d) diagonal %d pairs at (offset, distance) %v, replay %v",
				label, l, len(seqs[l].Data), d-diagBias, offs, want[key])
		}
	}
	for key, offs := range want {
		if _, ok := got[key]; !ok {
			l, d := coder.Decode(key)
			t.Fatalf("%s: subject %d (length %d) diagonal %d has no pairs, replay %v",
				label, l, len(seqs[l].Data), d-diagBias, offs)
		}
	}
}

// checkBlockDiagonal searches q against the one-block database of seqs with
// detectScan on both slot widths and requires, per (subject, diagonal), the
// pair list replayPairs gives — plus hit and pair counts equal to the
// replay's and to the db-indexed baseline's, which keeps per-sequence arrays.
func checkBlockDiagonal(t *testing.T, seqs [][]alphabet.Code, q []alphabet.Code, window int) {
	t.Helper()
	cfg := cfgShared(t)
	cfg.TwoHit.Window = window
	db := dbase.New(seqs)
	ix, err := dbindex.BuildWindow(db, cfg.Neighbors, 1<<30, window)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) < alphabet.W || len(ix.Blocks) == 0 {
		return
	}
	if len(ix.Blocks) != 1 {
		t.Fatalf("%d blocks, want one", len(ix.Blocks))
	}
	b := ix.Blocks[0]
	diagBias := len(q) - alphabet.W
	numDiags := max(len(q)+b.Block.MaxLen-2*alphabet.W+1, 1)
	coder, err := hit.NewKeyCoder(b.Block.NumSeqs(), numDiags)
	if err != nil {
		t.Fatal(err)
	}
	want, wantHits, wantPairs := replayPairs(cfg, db.Seqs, q, coder, numDiags)
	e := New(cfg, ix)
	for _, width := range slotWidths {
		sc := e.getScratch()
		planned(e, sc, q)
		var st search.Stats
		width.detect(e, sc, q, 0, coder, &st)
		checkPairs(t, width.name, db.Seqs, coder, diagBias, sc.pairs, st, want, wantHits, wantPairs)
		e.putScratch(sc)
	}
	// Hits and pairs do not depend on the trigger score; out of reach, it
	// spares the baseline the gapped stage on thousands of perfect repeats.
	counting := *cfg
	counting.TwoHit.Trigger = 1 << 30
	if st := baseline.NewDBIndexed(&counting, ix).Search(0, q).Stats; st.Hits != wantHits || st.Pairs != wantPairs {
		t.Errorf("baseline.DBIndexed: %d hits %d pairs, replay %d hits %d pairs", st.Hits, st.Pairs, wantHits, wantPairs)
	}
}

// lowComplexity returns n residues of period one or two over two letters
// whose words are all their own neighbours: kind 0 and 1 are the runs, 2 and
// 3 the two phases of the alternation.
func lowComplexity(kind, n int) []alphabet.Code {
	enc, err := alphabet.Encode([]byte("WC"))
	if err != nil {
		panic(err)
	}
	s := make([]alphabet.Code, n)
	for i := range s {
		switch kind {
		case 0, 1:
			s[i] = enc[kind]
		default:
			s[i] = enc[(i+kind)%2]
		}
	}
	return s
}

// blockDiagWindows are the windows the collision databases are built for: the
// narrowest that pairs at all (pad 1), a short one, and the default.
var blockDiagWindows = []int{alphabet.W + 1, 11, 40}

func TestBlockDiagonalNoCrossTalk(t *testing.T) {
	kindOrders := [][]int{{0}}
	for n := 1; n < 4; n++ { // all orders of the four kinds
		var next [][]int
		for _, o := range kindOrders {
			for at := 0; at <= len(o); at++ {
				next = append(next, slices.Insert(slices.Clone(o), at, n))
			}
		}
		kindOrders = next
	}
	for _, window := range blockDiagWindows {
		// Lengths 0, W-1, W, W+1 ... window+W+2. The index sorts by length
		// and keeps the given order among equals, so the order of the kinds
		// is the order in which same-length sequences meet on the block axis.
		lengths := []int{0}
		for n := alphabet.W - 1; n <= window+alphabet.W+2; n++ {
			lengths = append(lengths, n)
		}
		longest := lengths[len(lengths)-1]
		for _, order := range kindOrders {
			var seqs [][]alphabet.Code
			for _, n := range lengths {
				for _, kind := range order {
					seqs = append(seqs, lowComplexity(kind, n))
				}
			}
			for kind := 0; kind < 4; kind++ {
				for _, qLen := range []int{alphabet.W, longest + window + 1} {
					t.Run(fmt.Sprintf("window=%d/order=%v/query=%d:%d", window, order, kind, qLen), func(t *testing.T) {
						checkBlockDiagonal(t, seqs, lowComplexity(kind, qLen), window)
					})
				}
			}
		}
	}
}

// FuzzBlockDiagonalEquivalence lets the fuzzer choose the sequences: byte 0
// picks the window, the rest is split on 0xFF into the query and the
// subjects, each byte a residue of a three-letter alphabet (two letters that
// hit each other everywhere, one that separates).
func FuzzBlockDiagonalEquivalence(f *testing.F) {
	letters, err := alphabet.Encode([]byte("WCA"))
	if err != nil {
		f.Fatal(err)
	}
	for wi, window := range blockDiagWindows {
		// Two runs of the same letter meeting end to start, under a query
		// long enough to span both and the gap: the tightest case.
		seed := []byte{byte(wi)}
		seed = append(seed, bytes.Repeat([]byte{0}, 2*window+2*alphabet.W)...)
		for _, n := range []int{alphabet.W, alphabet.W, alphabet.W + 1, window} {
			seed = append(seed, 0xFF)
			seed = append(seed, bytes.Repeat([]byte{0}, n)...)
		}
		f.Add(seed)
	}
	f.Add([]byte{2, 0, 1, 0, 1, 0, 0xFF, 0, 1, 0, 1, 0xFF, 1, 0, 1, 0, 2, 1, 0, 0xFF, 0xFF, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 1<<10 {
			return
		}
		window := blockDiagWindows[int(data[0])%len(blockDiagWindows)]
		var seqs [][]alphabet.Code
		for _, field := range bytes.Split(data[1:], []byte{0xFF}) {
			s := make([]alphabet.Code, len(field))
			for i, c := range field {
				s[i] = letters[int(c)%len(letters)]
			}
			seqs = append(seqs, s)
		}
		checkBlockDiagonal(t, seqs[1:], seqs[0], window)
	})
}

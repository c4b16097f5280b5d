package blast

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alphabet"
	"repro/internal/dbase"
)

// decodes returns how many containers f decoded.
func decodes(t *testing.T, f func() error) int64 {
	t.Helper()
	before := containerDecodes.Load()
	if err := f(); err != nil {
		t.Fatal(err)
	}
	return containerDecodes.Load() - before
}

// TestStoreAppendDecodesOnlyTheDelta pins the cost of an ingest without a
// clock: Append plus the view that follows decode exactly one container, the
// new delta, however large the base is.
func TestStoreAppendDecodesOnlyTheDelta(t *testing.T) {
	for _, baseSeqs := range []int{40, 400} {
		st, err := InitStore(t.TempDir(), storeSeqs(baseSeqs, 121, "base"), storeParams())
		if err != nil {
			t.Fatal(err)
		}
		for k, batch := range [][]Sequence{storeSeqs(6, 122, "d1x"), storeSeqs(6, 123, "d2x")} {
			n := decodes(t, func() error {
				if _, err := st.Append(batch); err != nil {
					return err
				}
				_, err := st.Database()
				return err
			})
			if n != 1 {
				t.Fatalf("base of %d sequences, append %d: Append and Database decoded %d containers, want 1", baseSeqs, k, n)
			}
		}
	}
}

// TestStoreCompactDecodesOnlyTheNewBase: a compaction decodes one container,
// the new base its verify-before-swap reads back, and keeps it, so the view
// after it decodes none.
func TestStoreCompactDecodesOnlyTheNewBase(t *testing.T) {
	_, st, _, _, _ := storeFixture(t)
	if n := decodes(t, st.Compact); n != 1 {
		t.Fatalf("Compact decoded %d containers, want 1", n)
	}
	if n := decodes(t, func() error { _, err := st.Database(); return err }); n != 0 {
		t.Fatalf("Database after Compact decoded %d containers, want 0", n)
	}
}

// TestStoreReleasesCompactedContainers: the store drops the containers a
// compaction replaced, and they are collected once the last view holding them
// is released — not before.
func TestStoreReleasesCompactedContainers(t *testing.T) {
	_, st, _, _, _ := storeFixture(t)
	view, err := st.Database()
	if err != nil {
		t.Fatal(err)
	}
	var collected atomic.Int32
	entries := st.man.entries()
	for _, e := range entries {
		runtime.SetFinalizer(st.held[e.Name].db, func(any) { collected.Add(1) })
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(st.held) != 1 {
		t.Fatalf("store holds %d containers after compaction, want 1", len(st.held))
	}
	runtime.GC()
	runtime.GC()
	if n := collected.Load(); n != 0 {
		t.Fatalf("%d containers collected while a view still holds them", n)
	}
	if _, err := view.Search("MKTAYIAKQRQISFVKSHFSRQ"); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(view)
	view = nil
	for deadline := time.Now().Add(10 * time.Second); collected.Load() < int32(len(entries)); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d replaced containers collected after their last view was released", collected.Load(), len(entries))
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestStoreViewUnchangedByLaterViews: a view taken before an Append and a
// Compact keeps answering byte-identically to its own from-scratch rebuild
// while searches run on it concurrently and the later views are built — the
// views share the store's containers, and nothing writes them.
func TestStoreViewUnchangedByLaterViews(t *testing.T) {
	_, st, base, b1, b2 := storeFixture(t)
	queries := storeQueries(base, b1, b2)
	view, err := st.Database()
	if err != nil {
		t.Fatal(err)
	}
	rebuild, err := NewDatabase(concat(base, b1, b2), storeParams())
	if err != nil {
		t.Fatal(err)
	}
	want := searchCtx(t, rebuild, queries)

	const searchers = 2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	got := make([][]*BatchResult, searchers)
	errs := make([]error, searchers)
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				br, err := view.SearchBatchCtx(context.Background(), queries)
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], br)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(g)
	}

	b3 := storeSeqs(5, 124, "d3x")
	if _, err := st.Append(b3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Database(); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	latest, err := st.Database()
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	for g := range got {
		if errs[g] != nil {
			t.Fatalf("searcher %d: %v", g, errs[g])
		}
		for _, br := range got[g] {
			assertSameAsMonolithic(t, "view taken before the append", br, want)
		}
	}
	assertSameSearch(t, "view taken before the append, afterwards", view, rebuild, queries)
	rebuild3, err := NewDatabase(concat(base, b1, b2, b3), storeParams())
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, "view after the compaction", latest, rebuild3, append(queries, b3[0].Residues))
}

// TestStoreHoldsOneCopyOfTheSequences: every container the store holds,
// after InitStore, Append, Compact and OpenStore alike, is one set of
// sequences with the index built over them — a commit keeps the Database it
// built, not a second decoded copy beside it. A commit whose decoded
// sequences or split origins differ from its Database's is refused, and
// nothing is held.
func TestStoreHoldsOneCopyOfTheSequences(t *testing.T) {
	oneCopy := func(when string, st *Store) {
		t.Helper()
		if len(st.held) != len(st.man.entries()) {
			t.Fatalf("%s: %d containers held for %d manifest entries", when, len(st.held), len(st.man.entries()))
		}
		for name, c := range st.held {
			if c.ix == nil || c.ix.DB != c.db {
				t.Fatalf("%s: %s's index is not over the sequences the store holds", when, name)
			}
		}
	}
	dir, st, _, _, _ := storeFixture(t)
	oneCopy("after InitStore and two Appends", st)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	oneCopy("after Compact", st)
	if _, err := st.Append(storeSeqs(4, 125, "d3x")); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenStore(dir, storeParams())
	if err != nil {
		t.Fatal(err)
	}
	oneCopy("after OpenStore", reopened)

	// The decoded sequences are held to the Database's: count, order, names
	// and residues.
	db, err := NewDatabase(storeSeqs(8, 126, "x"), storeParams())
	if err != nil {
		t.Fatal(err)
	}
	art := saved(t, db)
	for _, tc := range []struct {
		name   string
		change func(s []dbase.Sequence) []dbase.Sequence
	}{
		{"one fewer", func(s []dbase.Sequence) []dbase.Sequence { return s[:len(s)-1] }},
		{"swapped", func(s []dbase.Sequence) []dbase.Sequence { s[0], s[1] = s[1], s[0]; return s }},
		{"renamed", func(s []dbase.Sequence) []dbase.Sequence { s[3].Name += "'"; return s }},
		{"mutated", func(s []dbase.Sequence) []dbase.Sequence {
			s[5].Data = slices.Clone(s[5].Data)
			s[5].Data[0] = (s[5].Data[0] + 1) % alphabet.Size
			return s
		}},
	} {
		c, err := loadContainer(bytes.NewReader(art))
		if err != nil {
			t.Fatal(err)
		}
		other := *db.parts[0]
		other.db = &dbase.DB{Seqs: tc.change(slices.Clone(db.parts[0].db.Seqs))}
		if err := c.holds(&other); !errors.Is(err, ErrCorrupt) || c.db == other.db {
			t.Errorf("%s: holds returned %v and took the Database's sequences %v", tc.name, err, c.db == other.db)
		}
	}

	// Through writeContainer: split origins the bytes do not carry.
	bad, mis := *db, *db.parts[0]
	mis.chunkOrigin = map[string]chunkInfo{"missing": {origName: "x", offset: 1}}
	bad.parts = []*part{&mis}
	if c, _, err := writeContainer(t.TempDir(), "x.mublastp", &bad); !errors.Is(err, ErrCorrupt) || c != nil {
		t.Errorf("writeContainer of a Database its bytes do not decode to: got %v, holding %v", err, c != nil)
	}
}

package blast

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/alphabet"
	"repro/internal/seqgen"
)

// sessionFixture builds two distinct small databases (A and B), saves both
// as containers, and returns a query drawn from A's sequences (so it hits in
// both: B includes A's sequences plus more).
func sessionFixture(t *testing.T, p Params) (pathA, pathB, query string) {
	t.Helper()
	dir := t.TempDir()
	g := seqgen.New(seqgen.UniprotProfile(), 99)
	raw := g.Database(14)
	var seqsA, seqsB []Sequence
	for i, s := range raw {
		seq := Sequence{Name: nameFor(i), Residues: alphabet.String(s)}
		if i < 10 {
			seqsA = append(seqsA, seq)
		}
		seqsB = append(seqsB, seq)
	}
	query = seqsA[3].Residues
	if len(query) > 120 {
		query = query[:120]
	}
	pathA = filepath.Join(dir, "a.mublastp")
	pathB = filepath.Join(dir, "b.mublastp")
	for _, f := range []struct {
		path string
		seqs []Sequence
	}{{pathA, seqsA}, {pathB, seqsB}} {
		db, err := NewDatabase(f.seqs, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SaveFile(f.path); err != nil {
			t.Fatal(err)
		}
	}
	return pathA, pathB, query
}

func sessionParams() Params {
	p := DefaultParams()
	p.BlockResidues = 2048
	return p
}

// TestSessionConcurrentReload is the hot-reload identity gate: searches
// running while Reload swaps the container must return byte-identical
// results for whichever generation they pinned, and the swap itself must be
// atomic (every search sees exactly database A or exactly database B).
func TestSessionConcurrentReload(t *testing.T) {
	p := sessionParams()
	pathA, pathB, query := sessionFixture(t, p)

	wantA := directResult(t, pathA, p, query)
	wantB := directResult(t, pathB, p, query)
	if reflect.DeepEqual(wantA.Hits, wantB.Hits) {
		t.Fatal("fixture defect: databases A and B answer identically; the test cannot tell generations apart")
	}

	ses, err := OpenSession(pathA, p)
	if err != nil {
		t.Fatal(err)
	}
	dbA := ses.DB()

	const searchers = 8
	stop := make(chan struct{})
	errs := make(chan error, searchers)
	var wg sync.WaitGroup
	for i := 0; i < searchers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				db, _, release := ses.Acquire()
				res, err := db.Search(query)
				want := wantB
				if db == dbA {
					want = wantA
				}
				release()
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Hits, want.Hits) {
					errs <- errors.New("search result diverged from its generation's reference result")
					return
				}
			}
		}()
	}

	// Let the searchers spin, then swap mid-flight.
	time.Sleep(20 * time.Millisecond)
	if err := ses.Reload(pathB); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if g := ses.Generation(); g != 2 {
		t.Errorf("generation after reload = %d, want 2", g)
	}
	if n := ses.Reloads(); n != 1 {
		t.Errorf("reloads = %d, want 1", n)
	}
	// Post-reload searches must serve B.
	res, err := ses.DB().Search(query)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Hits, wantB.Hits) {
		t.Error("post-reload search does not match database B")
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// directResult is the reference answer: a fresh Load and a single search,
// with no session machinery involved.
func directResult(t *testing.T, path string, p Params, query string) *Result {
	t.Helper()
	db, err := LoadFile(path, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSessionReloadRejectsCorrupt flips one byte of the replacement
// container and asserts Reload fails typed with the old database untouched
// and still serving correct results.
func TestSessionReloadRejectsCorrupt(t *testing.T) {
	p := sessionParams()
	pathA, pathB, query := sessionFixture(t, p)
	wantA := directResult(t, pathA, p, query)

	art, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	for _, offset := range []int{5, len(art) / 2, len(art) - 3} {
		mut := append([]byte(nil), art...)
		mut[offset] ^= 0x20
		corruptPath := filepath.Join(t.TempDir(), "corrupt.mublastp")
		if err := os.WriteFile(corruptPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		ses, err := OpenSession(pathA, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ses.Reload(corruptPath); err == nil {
			t.Fatalf("Reload of container with byte %d flipped succeeded", offset)
		} else if !isTyped(err) {
			t.Errorf("Reload error for flipped byte %d is untyped: %v", offset, err)
		}
		if g := ses.Generation(); g != 1 {
			t.Errorf("generation after rejected reload = %d, want 1", g)
		}
		if n := ses.Reloads(); n != 0 {
			t.Errorf("reloads after rejected reload = %d, want 0", n)
		}
		res, err := ses.DB().Search(query)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Hits, wantA.Hits) {
			t.Error("old database no longer serving identical results after rejected reload")
		}
	}
}

// TestSessionReloadRejectsParamsMismatch: a structurally valid container
// built with a different matrix must be refused, with the old generation
// serving and its refcount balanced.
func TestSessionReloadRejectsParamsMismatch(t *testing.T) {
	p := sessionParams()
	pathA, _, query := sessionFixture(t, p)
	wantA := directResult(t, pathA, p, query)

	drifted := sessionParams()
	drifted.Matrix = "BLOSUM50"
	_, pathDrift, _ := sessionFixture(t, drifted)

	ses, err := OpenSession(pathA, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Reload(pathDrift); !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("Reload with drifted params: err = %v, want ErrParamsMismatch", err)
	}
	if ses.Generation() != 1 || ses.Refs() != 1 {
		t.Fatalf("after the refused reload: generation %d, refs %d; want 1 and 1", ses.Generation(), ses.Refs())
	}
	res, err := ses.DB().Search(query)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Hits, wantA.Hits) {
		t.Error("old database no longer serving identical results after params-mismatch reload")
	}
}

// TestSessionReloadDrains: Reload must not return while a search still pins
// the displaced generation, and must return promptly once it is released.
func TestSessionReloadDrains(t *testing.T) {
	p := sessionParams()
	pathA, pathB, _ := sessionFixture(t, p)
	ses, err := OpenSession(pathA, p)
	if err != nil {
		t.Fatal(err)
	}
	_, _, release := ses.Acquire()
	done := make(chan error, 1)
	go func() { done <- ses.Reload(pathB) }()
	select {
	case err := <-done:
		t.Fatalf("Reload returned (%v) while a search still pinned the old generation", err)
	case <-time.After(100 * time.Millisecond):
	}
	// The swap must become visible while Reload is still draining: new
	// acquires get generation 2 before the pinned search releases. (Polled,
	// not asserted at an instant — verify+load may still be running.)
	swapDeadline := time.Now().Add(10 * time.Second)
	for ses.Generation() != 2 {
		select {
		case err := <-done:
			t.Fatalf("Reload returned (%v) while a search still pinned the old generation", err)
		default:
		}
		if time.Now().After(swapDeadline) {
			t.Fatal("swap never became visible while Reload drained")
		}
		time.Sleep(2 * time.Millisecond)
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Reload: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Reload never returned after the pinned search released")
	}
}

// TestSessionRefcountBalance pins the reload error paths against generation
// leaks: every rejected Reload — missing path, corrupt container, params
// mismatch — must leave the serving generation's refcount at exactly 1 (the
// session's own reference) and the generation number unchanged, so the old
// database can still drain and be released on the next successful swap.
func TestSessionRefcountBalance(t *testing.T) {
	p := sessionParams()
	pathA, pathB, query := sessionFixture(t, p)
	ses, err := OpenSession(pathA, p)
	if err != nil {
		t.Fatal(err)
	}
	if ses.Refs() != 1 {
		t.Fatalf("fresh session Refs() = %d, want 1", ses.Refs())
	}
	gen := ses.Generation()

	// A pinned search raises the count; release restores it.
	_, _, release := ses.Acquire()
	if ses.Refs() != 2 {
		t.Fatalf("after Acquire Refs() = %d, want 2", ses.Refs())
	}
	release()
	if ses.Refs() != 1 {
		t.Fatalf("after release Refs() = %d, want 1", ses.Refs())
	}

	// Failure modes, each of which must not touch the refcount or swap.
	corrupt := filepath.Join(t.TempDir(), "corrupt.mublastp")
	data, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		filepath.Join(t.TempDir(), "missing.mublastp"),
		corrupt,
		t.TempDir(), // a directory that is not an ingest store
	} {
		if err := ses.Reload(path); err == nil {
			t.Fatalf("Reload(%s) succeeded, want rejection", path)
		}
		if ses.Refs() != 1 {
			t.Fatalf("after rejected Reload(%s) Refs() = %d, want 1", path, ses.Refs())
		}
		if ses.Generation() != gen {
			t.Fatalf("rejected Reload(%s) advanced generation %d -> %d", path, gen, ses.Generation())
		}
	}
	if err := ses.ReloadDB(nil); err == nil {
		t.Fatal("ReloadDB(nil) succeeded")
	}
	if ses.Refs() != 1 || ses.Generation() != gen {
		t.Fatalf("after ReloadDB(nil): Refs=%d gen=%d, want 1/%d", ses.Refs(), ses.Generation(), gen)
	}

	// The session still works and a real reload still swaps cleanly.
	if res, err := ses.DB().Search(query); err != nil || len(res.Hits) == 0 {
		t.Fatalf("search after rejected reloads: %v (%d hits)", err, len(res.Hits))
	}
	// Open validates the candidate in full, so a reload decodes it once.
	if n := decodes(t, func() error { return ses.Reload(pathB) }); n != 1 {
		t.Fatalf("Reload of one container decoded %d containers, want 1", n)
	}
	if ses.Refs() != 1 || ses.Generation() != gen+1 {
		t.Fatalf("after successful Reload: Refs=%d gen=%d, want 1/%d", ses.Refs(), ses.Generation(), gen+1)
	}
}

// TestSessionReloadStore covers the delta-aware reload path: a session
// serving a container can Reload onto an ingest-store directory (tiered
// database), onto the same store after more ingestion via ReloadDB, and is
// protected by the same verify-before-swap when the store is corrupt.
func TestSessionReloadStore(t *testing.T) {
	p := storeParams()
	base := storeSeqs(20, 121, "base")
	batch := storeSeqs(6, 122, "inc")
	dir := t.TempDir()
	st, err := InitStore(dir, base, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(batch); err != nil {
		t.Fatal(err)
	}

	baseOnly, err := NewDatabase(base, p)
	if err != nil {
		t.Fatal(err)
	}
	ses := NewSession(baseOnly, p)
	// One decode per container: the base and its one delta.
	if n := decodes(t, func() error { return ses.Reload(dir) }); n != 2 {
		t.Fatalf("Reload of a base and one delta decoded %d containers, want 2", n)
	}
	db := ses.DB()
	if !db.Tiered() {
		t.Fatal("session reloaded a store with deltas into an untiered database")
	}
	rebuild, err := NewDatabase(concat(base, batch), p)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, "session store reload", db, rebuild,
		[]string{queryFrom(base, 120), batch[0].Residues})

	// In-process ingest path: Append + ReloadDB from the live Store.
	more := storeSeqs(4, 123, "more")
	if _, err := st.Append(more); err != nil {
		t.Fatal(err)
	}
	next, err := st.Database()
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.ReloadDB(next); err != nil {
		t.Fatal(err)
	}
	if ses.Refs() != 1 {
		t.Fatalf("after ReloadDB Refs() = %d, want 1", ses.Refs())
	}
	rebuild2, err := NewDatabase(concat(base, batch, more), p)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, "session ingest reload", ses.DB(), rebuild2,
		[]string{queryFrom(base, 120), more[0].Residues})

	// Corrupt store: verify-before-swap keeps the current generation.
	gen := ses.Generation()
	manPath := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, append(data, '!'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ses.Reload(dir); err == nil {
		t.Fatal("Reload accepted a corrupt store")
	}
	if ses.Refs() != 1 || ses.Generation() != gen {
		t.Fatalf("after rejected store reload: Refs=%d gen=%d, want 1/%d", ses.Refs(), ses.Generation(), gen)
	}
}

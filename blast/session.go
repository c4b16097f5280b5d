package blast

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Session is a long-lived handle on a resident, searchable database that can
// be hot-swapped while searches are running — the serving-side complement of
// the container format's build-once/search-many design. A daemon opens one
// Session at startup and routes every request through Acquire, so the index
// is built (or loaded) exactly once and never rebuilt per request.
//
// Reload replaces the database atomically: the candidate is opened — which
// validates it as fully as Verify, and against the Session's Params — before
// the swap, so a corrupt or mismatched replacement is rejected with the old
// database still serving; searches that acquired the old generation keep it
// alive until they release it, and their results are byte-identical to a run
// with no reload at all. Reload returns only after the displaced generation
// has fully drained.
type Session struct {
	params Params // build/load parameters applied to every Reload

	// reloadMu serializes Reload calls; searches never take it.
	reloadMu sync.Mutex
	cur      atomic.Pointer[sessionGen]
	gen      atomic.Int64 // generation counter, 1-based
	reloads  atomic.Int64 // successful reloads
}

// sessionGen is one database generation. refs starts at 1 (the Session's own
// reference); every Acquire adds one. When the Session drops its reference at
// swap time and the last search releases, drained closes and Reload's wait
// completes. The count never revives from zero: acquire fails on a retired
// generation and the caller retries against the current one.
type sessionGen struct {
	db      *Database
	gen     int64
	refs    atomic.Int64
	drained chan struct{}
}

func newSessionGen(db *Database, gen int64) *sessionGen {
	g := &sessionGen{db: db, gen: gen, drained: make(chan struct{})}
	g.refs.Store(1)
	return g
}

// acquire adds a reference, failing if the generation is already retired.
func (g *sessionGen) acquire() bool {
	for {
		n := g.refs.Load()
		if n == 0 {
			return false
		}
		if g.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops a reference, closing drained on the last one.
func (g *sessionGen) release() {
	if g.refs.Add(-1) == 0 {
		close(g.drained)
	}
}

// NewSession wraps an already-constructed database. p is remembered as the
// load parameters for future Reload calls (typically the same Params the
// database was built with; fields the container pins — block size, split
// geometry — may be left zero to adopt each container's stored values).
func NewSession(db *Database, p Params) *Session {
	s := &Session{params: p}
	s.gen.Store(1)
	s.cur.Store(newSessionGen(db, 1))
	return s
}

// OpenSession loads a saved container — or an ingest-store directory, with
// full crash recovery — and wraps it in a Session.
func OpenSession(path string, p Params) (*Session, error) {
	db, err := Open(path, p)
	if err != nil {
		return nil, err
	}
	return NewSession(db, p), nil
}

// Acquire pins the current database generation and returns it, with its
// generation number and a release function. The database stays valid — and
// its results stay byte-identical — for the lifetime of the pin even if
// Reload swaps in a replacement concurrently; a reply stamps the returned
// number, not Generation, which may already name the replacement. Every
// Acquire must be paired with exactly one release.
func (s *Session) Acquire() (*Database, int64, func()) {
	for {
		g := s.cur.Load()
		if g.acquire() {
			return g.db, g.gen, g.release
		}
		// Raced with a swap retiring g; the new current generation is
		// already installed, so the retry terminates.
	}
}

// DB returns the current database without pinning it. Use Acquire for any
// access that outlives the call.
func (s *Session) DB() *Database { return s.cur.Load().db }

// Generation returns the 1-based generation number of the current database;
// it increments on every successful Reload.
func (s *Session) Generation() int64 { return s.cur.Load().gen }

// Reloads returns how many successful Reloads the session has performed.
func (s *Session) Reloads() int64 { return s.reloads.Load() }

// Refs returns the reference count of the current generation: 1 when no
// search is pinned to it (the session's own reference), higher while
// searches hold pins. Reload failure paths must leave this balanced — a
// rejected candidate must not leak a pin on the generation that keeps
// serving — and the refcount-balance tests assert exactly that.
func (s *Session) Refs() int64 { return s.cur.Load().refs.Load() }

// Reload atomically replaces the session's database with the one at path —
// a single container file or an ingest-store directory (base + deltas) —
// opened with the session's stored Params. Open makes every check Verify
// makes (every checksum of every file, complete decode, store recovery) plus
// the fingerprint's, decoding and indexing each container once, and nothing
// is swapped until it has succeeded: any failure, from a flipped byte to a
// params mismatch, leaves the old database serving untouched with its
// refcount balanced. After the swap Reload waits for every search still pinned to the
// displaced generation to finish (they complete normally, byte-identical to
// an undisturbed run) before returning.
func (s *Session) Reload(path string) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	db, err := Open(path, s.params)
	if err != nil {
		return fmt.Errorf("blast: reload rejected, keeping current database: %w", err)
	}
	s.swap(db)
	return nil
}

// ReloadDB swaps in an already-constructed (and already-validated) database.
// The ingestion path uses it: after a successful Append the daemon's own
// Store builds the new base+deltas view in process, and re-opening the
// directory — which would race a second recovery pass against the live
// single-writer Store — is neither needed nor allowed.
func (s *Session) ReloadDB(db *Database) error {
	if db == nil {
		return fmt.Errorf("blast: ReloadDB needs a database")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.swap(db)
	return nil
}

// swap installs db as the next generation and drains the displaced one.
// Callers hold reloadMu.
func (s *Session) swap(db *Database) {
	next := newSessionGen(db, s.gen.Add(1))
	old := s.cur.Swap(next)
	s.reloads.Add(1)
	old.release() // drop the session's own reference...
	<-old.drained // ...and wait for in-flight searches to finish with it
}

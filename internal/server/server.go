// Package server is how both daemons speak HTTP, and what mublastpd serves.
// The Edge (edge.go) is the one HTTP tier: mux, listener, drain, request
// Scope, batch preamble, renderer; Server here and router.Frontend embed it,
// and RegisterFlags (daemon.go) is the process both mains run. On the edge,
// Server keeps the database container and index resident (via
// blast.Session), runs every request through the batch scheduler, and wraps
// the pipeline in bounded admission with explicit backpressure (429 +
// Retry-After), token concurrency sized to the scheduler's worker pool, a
// load-shedding degraded mode under sustained queue pressure, and hot
// database reload and ingest with verify-before-swap.
//
// The paper's engine eliminates irregularity *inside* a batch; this package
// eliminates it *between* batches: overload never grows an unbounded queue,
// never starves the scheduler's worker pool with oversubscribed batches, and
// never turns one slow request into collapse — excess work is refused early
// and cheaply, with an honest signal the client can act on.
package server

import (
	"runtime"
	"time"

	"repro/blast"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/reqtrace"
)

// Fault sites of the serving layer, armable by name through the same chaos
// harness as the engine's (internal/faultinject). Disarmed they cost one
// atomic load per request.
var (
	// fiAdmit sits on the admission path, before queueing: an error fault
	// turns into a 503 (never a shed — the shed counters stay honest), a
	// delay fault slows admission, a panic is recovered to a 500.
	fiAdmit = faultinject.NewSite("server.admit")
	// fiReload sits on the hot-reload path, before the container swap: any
	// fault rejects the reload with the old database still serving.
	fiReload = faultinject.NewSite("server.reload")
	// fiRespond sits on the response path, before the body is encoded.
	fiRespond = faultinject.NewSite("server.respond")
	// fiIngest sits on the ingestion path, after admission but before the
	// WAL append: an error fault answers 503 with nothing durable written.
	fiIngest = faultinject.NewSite("server.ingest")
)

// Request bounds every daemon serves with. They have no setting: no caller
// needs another value, and the clients' contract is simpler for it.
const (
	// MaxTimeout caps client-requested deadlines.
	MaxTimeout = 2 * time.Minute
	// MaxQueries caps the batch size of one request.
	MaxQueries = 64
	// degradedMaxQueries caps the batch of a /search admitted in degraded
	// mode; its deadline shrinks to a quarter of DefaultTimeout.
	degradedMaxQueries = MaxQueries / 4
	// retryAfter is the Retry-After hint attached to sheds.
	retryAfter = time.Second
	// maxIngestSeqs caps the sequences of one ingest batch; larger batches
	// are refused 413 before anything touches the WAL.
	maxIngestSeqs = 10000
)

// Config tunes the serving layer. The zero value of every field selects the
// documented default.
type Config struct {
	// Queue bounds how many requests may wait for a run token; request
	// Queue+1 is shed with 429. Default 64.
	Queue int
	// Concurrency is the number of run tokens: how many batch searches may
	// run at once. The default sizes it to the scheduler's worker pool —
	// GOMAXPROCS divided by the per-batch thread count — so concurrent
	// batches never oversubscribe the cores the scheduler plans for.
	Concurrency int
	// DefaultTimeout is the per-request deadline when the client sends none
	// (default 30s); MaxTimeout caps what a client may ask for.
	DefaultTimeout time.Duration

	// DegradeAfter is degraded mode's dwell (default 250ms; negative means
	// none): when the admission queue stays at or above degradeHigh of Queue
	// for DegradeAfter, the server trips into degraded mode — per-request
	// deadlines shrink to DefaultTimeout/4 and a /search batch caps at
	// MaxQueries/4 — and recovers once depth stays at or below degradeLow of
	// Queue for DegradeAfter. Responses report the mode honestly.
	DegradeAfter time.Duration

	// Store, when set, is the crash-safe ingest store backing this daemon's
	// database: POST /ingest appends batches to it (WAL-committed delta
	// containers) and hot-swaps the session onto the new base+deltas view,
	// and /reload may name only the store's own directory, which it serves
	// from the live Store rather than re-running recovery against it. Nil
	// (the default) answers /ingest with 409: this daemon serves an
	// immutable container.
	Store *blast.Store
	// CompactAfter, when positive, compacts the store (merging base+deltas
	// into a fresh base under verify-before-swap) as part of any ingest that
	// leaves at least this many delta containers. 0 disables automatic
	// compaction.
	CompactAfter int

	// Registry receives the serving metrics (default obs.Default).
	Registry *obs.Registry

	// Tracer, when set, stitches every request into a JSONL trace tree:
	// edge, admission-queue wait, search, and per-query six-stage pipeline
	// spans, linked by span IDs and correlated by the request ID echoed in
	// X-Request-ID. Nil (the default) is free — every span operation
	// no-ops. The edge root also carries the request's status, query
	// lengths, deadline and degraded mark (the reqtrace Attr* attributes).
	Tracer *reqtrace.Tracer
	// Logf receives operational log lines (sheds, timeouts, cancellations)
	// tagged with the request ID so they correlate with traces. Nil
	// disables logging (tests); the daemon wires it to stderr.
	Logf func(format string, args ...any)
}

// Watermarks of degraded mode, as fractions of Queue.
const (
	degradeHigh = 0.75
	degradeLow  = 0.25
)

// edgeDefaults resolves the zero fields the Edge reads.
func (c Config) edgeDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.Default
	}
	return c
}

// withDefaults resolves every zero field. threads is the per-batch thread
// count the scheduler will use (0 = GOMAXPROCS), used to size Concurrency.
func (c Config) withDefaults(threads int) Config {
	c = c.edgeDefaults()
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.Concurrency <= 0 {
		if threads <= 0 {
			threads = runtime.GOMAXPROCS(0)
		}
		c.Concurrency = runtime.GOMAXPROCS(0) / threads
		if c.Concurrency < 1 {
			c.Concurrency = 1
		}
	}
	if c.DegradeAfter < 0 {
		c.DegradeAfter = 0
	} else if c.DegradeAfter == 0 {
		c.DegradeAfter = 250 * time.Millisecond
	}
	return c
}

// Server is the serving core of mublastpd: the Edge it stands on plus what
// this daemon serves through it — admission control, the search, shard,
// reload and ingest handlers. Construct with New, expose with Handler or
// Start.
type Server struct {
	*Edge // its cfg is the fully resolved Config
	ses   *blast.Session
	met   *obs.ServerMetrics

	adm *admission
	deg *degrader

	// ingestTok is the ingestion single-flight: one slot, held for the
	// duration of an /ingest commit. A second concurrent ingest sheds with
	// 503 + Retry-After instead of queueing — the store is single-writer,
	// and an unbounded ingest queue is exactly the irregularity the
	// admission layer exists to refuse.
	ingestTok chan struct{}

	// testHookRunning, when set before Start, runs after a request acquires
	// its run token and before the search starts — the deterministic gate
	// the overload tests use to hold a token while saturating the queue.
	testHookRunning func()
}

// New builds a Server around an open session. p is the Params the session's
// databases serve with; only p.Threads is read here (to size the default
// Concurrency against the scheduler's worker pool).
func New(ses *blast.Session, p blast.Params, cfg Config) *Server {
	cfg = cfg.withDefaults(p.Threads)
	met := obs.NewServerMetrics(cfg.Registry)
	s := &Server{
		Edge:      NewEdge("mublastpd", cfg, nil),
		ses:       ses,
		met:       met,
		adm:       newAdmission(cfg, met),
		deg:       newDegrader(cfg, met),
		ingestTok: make(chan struct{}, 1),
	}
	s.ingestTok <- struct{}{}
	s.stampServing()
	s.HandleFunc("/search", s.handleSearch)
	s.HandleFunc("/reload", s.handleReload)
	s.HandleFunc("/ingest", s.handleIngest)
	s.HandleFunc("/shard/search", s.handleShardSearch)
	s.HandleFunc("/shard/info", s.handleShardInfo)
	return s
}

// stampServing sets the gauges that describe the database being served —
// generation, index size, manifest seq, delta count — from the session's
// current one. It runs at start and after every swap, whatever the request
// that swapped answers.
func (s *Server) stampServing() {
	db := s.ses.DB()
	seq, _, deltas := db.Manifest()
	s.met.Generation.Set(float64(s.ses.Generation()))
	s.met.IndexBytes.Set(float64(db.IndexSizeBytes()))
	s.met.ManifestSeq.Set(float64(seq))
	s.met.DeltaCount.Set(float64(deltas))
}

// Config returns the resolved configuration (defaults filled in).
func (s *Server) Config() Config { return s.cfg }

// Session returns the session the server is serving from.
func (s *Server) Session() *blast.Session { return s.ses }

// Degraded reports whether degraded mode is currently tripped.
func (s *Server) Degraded() bool { return s.deg.active() }

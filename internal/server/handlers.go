package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"repro/blast"
	"repro/internal/reqtrace"
)

// Wire types of the /search endpoint. Hits are a stable snake_case mirror of
// blast.Hit so the engine's public structs can evolve without breaking
// clients.

// QueryInput is one named query sequence.
type QueryInput struct {
	Name     string `json:"name"`
	Residues string `json:"residues"`
}

// SearchRequest is the /search request body.
type SearchRequest struct {
	Queries []QueryInput `json:"queries"`
	// TimeoutMS requests a per-request deadline in milliseconds; 0 means the
	// server default. The server caps it (MaxTimeout, and a quarter of the
	// default in degraded mode) — the effective value is reported in the
	// response.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Hit is the wire form of one reported alignment.
type Hit struct {
	Subject      int     `json:"subject"`
	SubjectName  string  `json:"subject_name"`
	Score        int     `json:"score"`
	BitScore     float64 `json:"bit_score"`
	EValue       float64 `json:"e_value"`
	QueryStart   int     `json:"query_start"`
	QueryEnd     int     `json:"query_end"`
	SubjectStart int     `json:"subject_start"`
	SubjectEnd   int     `json:"subject_end"`
	Identity     float64 `json:"identity"`
	Ops          string  `json:"ops"`
}

// HitFromBlast converts an engine hit to its wire form. The conversion
// compiles only while Hit mirrors blast.Hit field for field, so a field the
// engine grows is a decision made here, not a silent omission.
func HitFromBlast(h blast.Hit) Hit { return Hit(h) }

// QueryOutput is the outcome of one query. Completed=false means the query
// was cut off (deadline, drain, or an isolated task failure) and Hits is
// empty; completed queries are byte-identical to a direct library call.
type QueryOutput struct {
	Name      string `json:"name"`
	QueryLen  int    `json:"query_len"`
	Completed bool   `json:"completed"`
	Error     string `json:"error,omitempty"`
	Hits      []Hit  `json:"hits"`
}

// RequestStats is the per-request serving and scheduler telemetry attached
// to every response.
type RequestStats struct {
	QueueWaitMS      float64 `json:"queue_wait_ms"`
	SearchMS         float64 `json:"search_ms"`
	EffectiveTimeout string  `json:"effective_timeout"`
	Workers          int     `json:"workers"`
	Tasks            int64   `json:"tasks"`
	TasksCancelled   int64   `json:"tasks_cancelled,omitempty"`
	TasksPanicked    int64   `json:"tasks_panicked,omitempty"`
	QueriesAborted   int64   `json:"queries_aborted,omitempty"`
	UtilizationPct   float64 `json:"utilization_pct"`
}

// SearchResponse is the /search response body. Degraded and Truncated are
// the honest-degradation contract: Degraded reports that the server was in
// load-shedding mode (shorter deadline, smaller batch cap) when the request
// was admitted, Truncated that the batch cap actually dropped queries from
// this request (the first degradedMaxQueries ran; the rest were not
// searched).
type SearchResponse struct {
	Degraded   bool          `json:"degraded"`
	Truncated  int           `json:"truncated_queries,omitempty"`
	Generation int64         `json:"db_generation"`
	Incomplete bool          `json:"incomplete,omitempty"`
	Error      string        `json:"error,omitempty"`
	Results    []QueryOutput `json:"results"`
	Stats      RequestStats  `json:"stats"`
}

// ReloadRequest is the /reload request body.
type ReloadRequest struct {
	Path string `json:"path"`
}

// ReloadResponse reports a successful swap. Manifest fields are set when the
// swapped-in database is an ingest store: replicas serving one logical store
// must agree on them, and the router's rolling delta propagation refuses
// mixed-manifest topologies.
type ReloadResponse struct {
	Generation   int64  `json:"db_generation"`
	Sequences    int    `json:"sequences"`
	Blocks       int    `json:"blocks"`
	ManifestSeq  int64  `json:"manifest_seq,omitempty"`
	ManifestHash string `json:"manifest_hash,omitempty"`
	Deltas       int    `json:"deltas,omitempty"`
}

// batch is the /search request's query batch: named queries.
func (req *SearchRequest) batch() Batch {
	b := Batch{Residues: make([]string, len(req.Queries)), Names: make([]string, len(req.Queries)),
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond}
	for i, q := range req.Queries {
		b.Residues[i], b.Names[i] = q.Residues, q.Name
	}
	return b
}

// admitted is a request that came through admit holding a run token.
type admitted struct {
	Batch
	sc        *Scope
	ctx       context.Context // the request context under the effective deadline
	degraded  bool
	enqueued  time.Time
	queueWait time.Duration
	// done returns the run token and cancels ctx; call it exactly once.
	done func()
}

// admit is what /search and /shard/search share: the edge's batch preamble
// (with the injected admission fault between its refusals and the decode),
// then this daemon's own admission — sample degraded mode and shrink the
// deadline, claim a wait slot or shed with 429, and wait for a run token
// under the deadline. req receives the decoded body; what names the
// endpoint's requests in log lines. On ok=false the response is written and
// the scope finished.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, what string, req batchRequest) (a admitted, ok bool) {
	sc, ok := s.Begin(w, r)
	if !ok {
		return a, false
	}
	if err := fiAdmit.Err(); err != nil {
		return a, sc.Reject(reqtrace.OutcomeError, http.StatusServiceUnavailable, "admission failure: %v", err)
	}
	b, ok := sc.DecodeBatch(r, req)
	if !ok {
		return a, false
	}

	// Degraded mode is sampled at admission time and applied to this whole
	// request: a shorter deadline (and, on /search, a smaller batch cap),
	// reported in the response rather than silently imposed.
	degraded := s.deg.observe(s.adm.depth(), time.Now())
	if degraded {
		b.Timeout = min(b.Timeout, s.cfg.DefaultTimeout/4)
		sc.Root.SetAttr(reqtrace.AttrDegraded, "true")
		sc.stampDeadline(b.Timeout)
	}

	// Claim a wait slot — the only unbounded-queue defense that matters.
	if !s.adm.enter() {
		s.deg.observe(s.adm.depth(), time.Now())
		SetRetryAfter(w, retryAfter)
		s.Logf("%s %s shed: admission queue full (%d waiting)", what, sc.RID, s.cfg.Queue)
		return a, sc.Reject(reqtrace.OutcomeShed, http.StatusTooManyRequests,
			"admission queue full (%d waiting); retry later", s.cfg.Queue)
	}
	s.deg.observe(s.adm.depth(), time.Now())

	// The deadline covers queueing AND searching: a request that waited its
	// whole budget in the queue is shed as timed out, not run late.
	ctx, cancel := context.WithTimeout(r.Context(), b.Timeout)
	enqueued := time.Now()
	admSpan := sc.Root.Child("admission", enqueued.UnixNano())
	if !s.adm.acquire(ctx.Done()) {
		defer cancel()
		waited := time.Since(enqueued)
		admSpan.End(waited.Nanoseconds())
		s.deg.observe(s.adm.depth(), time.Now())
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.met.TimedOut.Add(1)
			SetRetryAfter(w, retryAfter)
			s.Logf("%s %s timed out after %v in the admission queue", what, sc.RID, waited.Round(time.Millisecond))
			return a, sc.Reject(reqtrace.OutcomeTimeout, http.StatusServiceUnavailable,
				"deadline expired after %v in the admission queue", waited.Round(time.Millisecond))
		}
		// Client went away (or the drain cancelled the base context);
		// nothing useful to write.
		s.Logf("%s %s cancelled while queued", what, sc.RID)
		return a, sc.Reject(reqtrace.OutcomeCancelled, http.StatusServiceUnavailable, "request cancelled while queued")
	}
	queueWait := time.Since(enqueued)
	admSpan.End(queueWait.Nanoseconds())
	s.met.Admitted.Add(1)
	s.met.QueueWaitNanos.Observe(int64(queueWait))
	s.deg.observe(s.adm.depth(), time.Now())
	if s.testHookRunning != nil {
		s.testHookRunning()
	}
	return admitted{Batch: b, sc: sc, ctx: ctx, degraded: degraded, enqueued: enqueued,
		queueWait: queueWait, done: func() { s.adm.release(); cancel() }}, true
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	a, ok := s.admit(w, r, "request", &req)
	if !ok {
		return
	}
	defer a.done()
	sc := a.sc
	// Degraded mode also shrinks the batch: the first degradedMaxQueries
	// run, the rest are reported as truncated.
	n, truncated := len(req.Queries), 0
	if a.degraded && n > degradedMaxQueries {
		n, truncated = degradedMaxQueries, n-degradedMaxQueries
	}
	texts, names := a.Residues[:n], a.Names[:n]

	db, release := s.ses.Acquire()
	searchStart := time.Now()
	searchSpan := sc.Root.Child("search", searchStart.UnixNano())
	br, err := db.SearchBatchCtx(reqtrace.ContextWithSpan(a.ctx, searchSpan), texts)
	searchDur := time.Since(searchStart)
	release()
	searchSpan.End(searchDur.Nanoseconds())
	if err != nil {
		sc.Reject(reqtrace.OutcomeRejected, http.StatusBadRequest, "search: %v", err)
		return
	}
	for i, res := range br.Results {
		if searchSpan != nil && br.Completed[i] {
			q := reqtrace.AttachQuerySpan(searchSpan, searchStart.UnixNano(), names[i], res.StageSpans())
			q.SetAttr("query_len", strconv.Itoa(res.QueryLen))
			q.SetAttr("hits", strconv.Itoa(len(res.Hits)))
		}
	}
	s.met.RequestNanos.Observe(int64(time.Since(a.enqueued)))

	resp := RenderBatch(br, names, searchDur, a.Timeout)
	resp.Degraded, resp.Truncated, resp.Generation = a.degraded, truncated, s.ses.Generation()
	resp.Stats.QueueWaitMS = float64(a.queueWait) / float64(time.Millisecond)

	s.respond(w, sc, "request", resp, br.Err)
}

// respond answers an admitted batch: 200 with resp, or 500 on an injected
// response fault. partial is the batch's own error — it was cut short
// (deadline or drain) but completed queries are still answered: an honest
// partial, recorded as a timeout because it ran out of its deadline budget.
func (s *Server) respond(w http.ResponseWriter, sc *Scope, what string, resp any, partial error) {
	if err := fiRespond.Err(); err != nil {
		sc.Reject(reqtrace.OutcomeError, http.StatusInternalServerError, "response failure: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
	outcome := reqtrace.OutcomeOK
	if partial != nil {
		outcome = reqtrace.OutcomeTimeout
		s.Logf("%s %s incomplete: %v", what, sc.RID, partial)
	}
	sc.Finish(outcome, http.StatusOK)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req ReloadRequest
	if !s.DecodePost(w, r, &req) {
		return
	}
	if req.Path == "" {
		WriteError(w, http.StatusBadRequest, "missing path")
		return
	}
	err := fiReload.Err()
	if err == nil {
		err = s.reloadPath(req.Path)
	}
	if err != nil {
		s.met.ReloadsRejected.Add(1)
		WriteError(w, reloadErrStatus(err), "reload rejected, previous database still serving: %v", err)
		return
	}
	s.met.Reloads.Add(1)
	s.met.Generation.Set(float64(s.ses.Generation()))
	db := s.ses.DB()
	s.met.IndexBytes.Set(float64(db.IndexSizeBytes()))
	seq, hash, deltas := db.Manifest()
	WriteJSON(w, http.StatusOK, ReloadResponse{
		Generation:   s.ses.Generation(),
		Sequences:    db.NumSequences(),
		Blocks:       db.NumBlocks(),
		ManifestSeq:  seq,
		ManifestHash: hash,
		Deltas:       deltas,
	})
}

// reloadPath routes a reload. A daemon with a store serves only its own
// live store: a path naming it is served from the in-process Store
// (re-opening the directory would run a second recovery pass — WAL replay,
// orphan GC — against files the live single-writer Store owns), and any
// other path is refused with errStoreOnly, since the next ingest would swap
// the store's view back in. A daemon without one opens the path through the
// session, which swaps only what opened cleanly.
func (s *Server) reloadPath(path string) error {
	st := s.cfg.Store
	if st == nil {
		return s.ses.Reload(path)
	}
	if !sameDir(path, st.Dir()) {
		return fmt.Errorf("%w (%s)", errStoreOnly, st.Dir())
	}
	db, err := st.Database()
	if err != nil {
		return err
	}
	if err := s.ses.ReloadDB(db); err != nil {
		return err
	}
	s.met.ManifestSeq.Set(float64(st.ManifestSeq()))
	s.met.DeltaCount.Set(float64(st.NumDeltas()))
	return nil
}

// errStoreOnly refuses a /reload of another path on a daemon with a store.
var errStoreOnly = errors.New("this daemon serves an ingest store and reloads only its directory")

// sameDir reports whether two paths name the same directory, resolving
// symlinks and relative segments where possible.
func sameDir(a, b string) bool {
	ra, err := filepath.EvalSymlinks(a)
	if err != nil {
		return false
	}
	rb, err := filepath.EvalSymlinks(b)
	if err != nil {
		return false
	}
	return ra == rb
}

// reloadErrStatus maps reload failures: structural invalidity of the
// candidate (corruption, version or params mismatch, not-a-store) is 422 —
// retrying the same path is pointless; anything else (missing file, another
// path than a store daemon's own, injected fault) is 409.
func reloadErrStatus(err error) int {
	if errors.Is(err, blast.ErrCorrupt) || errors.Is(err, blast.ErrVersion) ||
		errors.Is(err, blast.ErrParamsMismatch) || errors.Is(err, blast.ErrStoreCorrupt) ||
		errors.Is(err, blast.ErrNoStore) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusConflict
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"repro/blast"
	"repro/internal/alphabet"
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
	// server default. The server caps it (MaxTimeout, and DegradedTimeout in
	// degraded mode) — the effective value is reported in the response.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Policy selects the replica-choice policy on a sharded (router) tier;
	// empty means the tier's default. The single-database server ignores it.
	Policy string `json:"policy,omitempty"`
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

// HitFromBlast converts an engine hit to its wire form.
func HitFromBlast(h blast.Hit) Hit {
	return Hit{
		Subject:      h.Subject,
		SubjectName:  h.SubjectName,
		Score:        h.Score,
		BitScore:     h.BitScore,
		EValue:       h.EValue,
		QueryStart:   h.QueryStart,
		QueryEnd:     h.QueryEnd,
		SubjectStart: h.SubjectStart,
		SubjectEnd:   h.SubjectEnd,
		Identity:     h.Identity,
		Ops:          h.Ops,
	}
}

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
// this request (the first MaxQueries ran; the rest were not searched).
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
	// VerifyOnly validates the container end to end (CRCs, structure,
	// fingerprint) and reports what it holds without swapping anything in.
	// Rolling-reload orchestration probes every worker this way before the
	// first swap, so a bad container is rejected fleet-wide up front.
	VerifyOnly bool `json:"verify_only,omitempty"`
}

// ReloadResponse reports a successful swap, or — for a verify-only probe —
// what the candidate container holds (Verified true, no swap happened, and
// Generation is the still-serving database's). Manifest fields are set when
// the candidate (or the swapped-in database) is an ingest store: replicas
// serving one logical store must agree on them, and the router's rolling
// delta propagation refuses mixed-manifest topologies.
type ReloadResponse struct {
	Generation    int64              `json:"db_generation"`
	Sequences     int                `json:"sequences"`
	Blocks        int                `json:"blocks"`
	Verified      bool               `json:"verified,omitempty"`
	TotalResidues int64              `json:"total_residues,omitempty"`
	Fingerprint   *blast.Fingerprint `json:"fingerprint,omitempty"`
	ManifestSeq   int64              `json:"manifest_seq,omitempty"`
	ManifestHash  string             `json:"manifest_hash,omitempty"`
	Deltas        int                `json:"deltas,omitempty"`
}

// errorResponse is the uniform JSON error body.
type errorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection is the only failure mode left here
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Status: status})
}

// retryAfterSeconds renders the Retry-After hint (whole seconds, minimum 1).
func retryAfterSeconds(d time.Duration) string {
	s := int(d.Round(time.Second) / time.Second)
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// batchView is what admit needs to know about a decoded request body.
type batchView struct {
	residues  []string
	names     []string // parallel to residues when the endpoint names its queries; nil otherwise
	timeoutMS int64
	// invalid is the endpoint's own validation failure ("" when there is
	// none); it is reported with 400 after the batch-size caps.
	invalid string
}

// admitted is a request that came through admit holding a run token.
type admitted struct {
	batchView
	sc        *searchScope
	ctx       context.Context // the request context under the effective deadline
	degraded  bool
	timeout   time.Duration
	enqueued  time.Time
	queueWait time.Duration
	// done returns the run token and cancels ctx; call it exactly once.
	done func()
}

// admit is the preamble /search and /shard/search share: open the trace
// scope, refuse what can never run (wrong method, draining, an injected
// admission fault, an undecodable or oversized body, malformed residues)
// before it can occupy a queue slot, sample degraded mode and clamp the
// deadline, claim a wait slot or shed with 429, and wait for a run token
// under the deadline. req receives the decoded body and view then describes
// it; what names the endpoint's requests in log lines. On ok=false the
// response is written and the scope finished.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, what string, req any, view func() batchView) (a admitted, ok bool) {
	sc := s.beginSearchScope(w, r)
	reject := func(outcome string, status int, format string, args ...any) (admitted, bool) {
		writeError(w, status, format, args...)
		sc.finish(outcome, status)
		return admitted{}, false
	}
	if r.Method != http.MethodPost {
		return reject(reqtrace.OutcomeRejected, http.StatusMethodNotAllowed, "POST only")
	}
	if s.Draining() {
		return reject(reqtrace.OutcomeCancelled, http.StatusServiceUnavailable, "draining")
	}
	if err := fiAdmit.Err(); err != nil {
		return reject(reqtrace.OutcomeError, http.StatusServiceUnavailable, "admission failure: %v", err)
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(req); err != nil {
		return reject(reqtrace.OutcomeRejected, http.StatusBadRequest, "decoding request: %v", err)
	}
	v := view()
	if len(v.residues) == 0 {
		return reject(reqtrace.OutcomeRejected, http.StatusBadRequest, "no queries")
	}
	if len(v.residues) > s.cfg.MaxQueries {
		return reject(reqtrace.OutcomeRejected, http.StatusRequestEntityTooLarge,
			"%d queries exceeds the per-request cap of %d", len(v.residues), s.cfg.MaxQueries)
	}
	if v.invalid != "" {
		return reject(reqtrace.OutcomeRejected, http.StatusBadRequest, "%s", v.invalid)
	}
	// Malformed sequences are refused before admission: a request that can
	// never run must not occupy a queue slot.
	for i, res := range v.residues {
		if _, err := alphabet.Encode([]byte(res)); err != nil {
			if v.names != nil {
				return reject(reqtrace.OutcomeRejected, http.StatusBadRequest, "query %d (%s): %v", i, v.names[i], err)
			}
			return reject(reqtrace.OutcomeRejected, http.StatusBadRequest, "query %d: %v", i, err)
		}
	}
	if sc.rec != nil {
		sc.rec.QueryLens = make([]int, len(v.residues))
		for i, res := range v.residues {
			sc.rec.QueryLens[i] = len(res)
		}
	}

	// Degraded mode is sampled at admission time and applied to this whole
	// request: a shorter deadline (and, on /search, a smaller batch cap),
	// reported in the response rather than silently imposed.
	degraded := s.deg.observe(s.adm.depth(), time.Now())
	timeout := s.cfg.DefaultTimeout
	if v.timeoutMS > 0 {
		timeout = time.Duration(v.timeoutMS) * time.Millisecond
	}
	timeout = min(timeout, s.cfg.MaxTimeout)
	if degraded {
		timeout = min(timeout, s.cfg.DegradedTimeout)
	}
	if sc.rec != nil {
		sc.rec.DeadlineMS = timeout.Milliseconds()
		sc.rec.Degraded = degraded
	}

	// Claim a wait slot — the only unbounded-queue defense that matters.
	if !s.adm.enter() {
		s.deg.observe(s.adm.depth(), time.Now())
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		s.logf("%s %s shed: admission queue full (%d waiting)", what, sc.rid, s.cfg.Queue)
		return reject(reqtrace.OutcomeShed, http.StatusTooManyRequests,
			"admission queue full (%d waiting); retry later", s.cfg.Queue)
	}
	s.deg.observe(s.adm.depth(), time.Now())

	// The deadline covers queueing AND searching: a request that waited its
	// whole budget in the queue is shed as timed out, not run late.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	enqueued := time.Now()
	admSpan := sc.root.Child("admission", enqueued.UnixNano())
	if !s.adm.acquire(ctx.Done()) {
		defer cancel()
		waited := time.Since(enqueued)
		admSpan.End(waited.Nanoseconds())
		sc.spanNanos("queue", waited)
		s.deg.observe(s.adm.depth(), time.Now())
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.met.TimedOut.Add(1)
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
			s.logf("%s %s timed out after %v in the admission queue", what, sc.rid, waited.Round(time.Millisecond))
			return reject(reqtrace.OutcomeTimeout, http.StatusServiceUnavailable,
				"deadline expired after %v in the admission queue", waited.Round(time.Millisecond))
		}
		// Client went away (or the drain cancelled the base context);
		// nothing useful to write.
		s.logf("%s %s cancelled while queued", what, sc.rid)
		return reject(reqtrace.OutcomeCancelled, http.StatusServiceUnavailable, "request cancelled while queued")
	}
	queueWait := time.Since(enqueued)
	admSpan.End(queueWait.Nanoseconds())
	sc.spanNanos("queue", queueWait)
	s.met.Admitted.Add(1)
	s.met.QueueWaitNanos.Observe(int64(queueWait))
	s.deg.observe(s.adm.depth(), time.Now())
	if s.testHookRunning != nil {
		s.testHookRunning()
	}
	return admitted{batchView: v, sc: sc, ctx: ctx, degraded: degraded, timeout: timeout, enqueued: enqueued,
		queueWait: queueWait, done: func() { s.adm.release(); cancel() }}, true
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	a, ok := s.admit(w, r, "request", &req, func() batchView {
		v := batchView{residues: make([]string, len(req.Queries)), names: make([]string, len(req.Queries)), timeoutMS: req.TimeoutMS}
		for i, q := range req.Queries {
			v.residues[i], v.names[i] = q.Residues, q.Name
		}
		return v
	})
	if !ok {
		return
	}
	defer a.done()
	sc := a.sc
	// Degraded mode also shrinks the batch: the first DegradedMaxQueries run,
	// the rest are reported as truncated.
	n, truncated := len(req.Queries), 0
	if a.degraded && n > s.cfg.DegradedMaxQueries {
		n, truncated = s.cfg.DegradedMaxQueries, n-s.cfg.DegradedMaxQueries
	}
	texts, names := a.residues[:n], a.names[:n]

	db, release := s.ses.Acquire()
	searchStart := time.Now()
	searchSpan := sc.root.Child("search", searchStart.UnixNano())
	br, err := db.SearchBatchCtx(reqtrace.ContextWithSpan(a.ctx, searchSpan), texts)
	searchDur := time.Since(searchStart)
	release()
	searchSpan.End(searchDur.Nanoseconds())
	sc.spanNanos("search", searchDur)
	if err != nil {
		writeError(w, http.StatusBadRequest, "search: %v", err)
		sc.finish(reqtrace.OutcomeRejected, http.StatusBadRequest)
		return
	}
	attachQuerySpans(searchSpan, searchStart.UnixNano(), names, br)
	s.met.RequestNanos.Observe(int64(time.Since(a.enqueued)))

	resp := SearchResponse{
		Degraded:   a.degraded,
		Truncated:  truncated,
		Generation: s.ses.Generation(),
		Incomplete: br.Err != nil,
		Results:    make([]QueryOutput, len(br.Results)),
		Stats: RequestStats{
			QueueWaitMS:      float64(a.queueWait) / float64(time.Millisecond),
			SearchMS:         float64(searchDur) / float64(time.Millisecond),
			EffectiveTimeout: a.timeout.String(),
			Workers:          br.Sched.Workers,
			Tasks:            br.Sched.Tasks,
			TasksCancelled:   br.Sched.TasksCancelled,
			TasksPanicked:    br.Sched.TasksPanicked,
			QueriesAborted:   br.Sched.QueriesAborted,
			UtilizationPct:   br.Sched.Utilization() * 100,
		},
	}
	if br.Err != nil {
		resp.Error = br.Err.Error()
	}
	for i := range br.Results {
		out := QueryOutput{
			Name:      names[i],
			QueryLen:  br.Results[i].QueryLen,
			Completed: br.Completed[i],
			Hits:      []Hit{},
		}
		if br.QueryErrs[i] != nil {
			out.Error = br.QueryErrs[i].Error()
		}
		if br.Completed[i] {
			for _, h := range br.Results[i].Hits {
				out.Hits = append(out.Hits, HitFromBlast(h))
			}
		}
		resp.Results[i] = out
	}

	if err := fiRespond.Err(); err != nil {
		writeError(w, http.StatusInternalServerError, "response failure: %v", err)
		sc.finish(reqtrace.OutcomeError, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, resp)
	outcome := reqtrace.OutcomeOK
	if br.Err != nil {
		// The batch was cut short (deadline or drain) but completed queries
		// were still answered: an honest partial, recorded as a timeout so
		// the capacity model counts it against the deadline budget.
		outcome = reqtrace.OutcomeTimeout
		s.logf("request %s incomplete: %v", sc.rid, br.Err)
	}
	sc.finish(outcome, http.StatusOK)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req ReloadRequest
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, "missing path")
		return
	}
	if req.VerifyOnly {
		err := fiReload.Err()
		var info *blast.PathInfo
		if err == nil {
			// VerifyPath handles both shapes: a single container file and
			// an ingest-store directory (manifest + base + deltas + WAL).
			info, err = blast.VerifyPath(req.Path)
		}
		if err != nil {
			s.met.ReloadsRejected.Add(1)
			writeError(w, reloadErrStatus(err), "verify rejected: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, ReloadResponse{
			Generation:    s.ses.Generation(),
			Sequences:     info.NumSequences,
			Blocks:        info.NumBlocks,
			Verified:      true,
			TotalResidues: info.TotalResidues,
			Fingerprint:   &info.Fingerprint,
			ManifestSeq:   info.ManifestSeq,
			ManifestHash:  info.ManifestHash,
			Deltas:        info.Deltas,
		})
		return
	}
	err := fiReload.Err()
	if err == nil {
		err = s.reloadPath(req.Path)
	}
	if err != nil {
		s.met.ReloadsRejected.Add(1)
		writeError(w, reloadErrStatus(err), "reload rejected, previous database still serving: %v", err)
		return
	}
	s.met.Reloads.Add(1)
	s.met.Generation.Set(float64(s.ses.Generation()))
	db := s.ses.DB()
	seq, hash, deltas := db.Manifest()
	writeJSON(w, http.StatusOK, ReloadResponse{
		Generation:   s.ses.Generation(),
		Sequences:    db.NumSequences(),
		Blocks:       db.NumBlocks(),
		ManifestSeq:  seq,
		ManifestHash: hash,
		Deltas:       deltas,
	})
}

// reloadPath routes a reload: a path naming the daemon's own live store is
// served from the in-process Store (re-opening the directory would run a
// second recovery pass — WAL replay, orphan GC — against files the live
// single-writer Store owns); anything else goes through the session's
// verify-before-swap open.
func (s *Server) reloadPath(path string) error {
	if st := s.cfg.Store; st != nil && sameDir(path, st.Dir()) {
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
	return s.ses.Reload(path)
}

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

// reloadErrStatus maps reload/verify failures: structural invalidity of the
// candidate (corruption, version or params mismatch, not-a-store) is 422 —
// retrying the same path is pointless; anything else (missing file,
// injected fault) is 409.
func reloadErrStatus(err error) int {
	if errors.Is(err, blast.ErrCorrupt) || errors.Is(err, blast.ErrVersion) ||
		errors.Is(err, blast.ErrParamsMismatch) || errors.Is(err, blast.ErrStoreCorrupt) ||
		errors.Is(err, blast.ErrNoStore) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusConflict
}

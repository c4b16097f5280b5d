package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/blast"
	"repro/internal/alphabet"
	"repro/internal/obs"
	"repro/internal/reqtrace"
)

// Request body caps. Batches and ingests share one; a reload names a path.
const (
	maxBodyBytes       = 32 << 20
	maxReloadBodyBytes = 1 << 20
)

// Edge is the one place that knows how mublastpd and mublastpr speak HTTP.
// It owns the mux behind panic recovery, the listener, the base context
// every request descends from, the drain state machine, the debug surface
// (/metrics, /healthz, /readyz, /debug/...) and, per request, the Scope and
// the batch preamble. What is served stays with the daemon: Server adds
// admission, degraded mode, reload and ingest; router.Frontend the scatter,
// its shed mapping and the rolling reload.
type Edge struct {
	daemon string
	cfg    Config
	mux    *http.ServeMux
	ready  func() error

	// ctx is the ancestor of every request context (via BaseContext):
	// cancelling it stops all in-flight batches between tasks so their
	// handlers flush partial results during a drain.
	ctx       context.Context
	cancel    context.CancelFunc
	draining  atomic.Bool // set once BeginDrain has run
	drainOnce sync.Once
	httpSrv   atomic.Pointer[http.Server]
}

// NewEdge builds the edge of the named daemon (the trace root's "daemon"
// attribute). Of cfg it reads DefaultTimeout and the sinks (Registry, Tracer,
// Logf); the rest is the Server's. The other request bounds, MaxTimeout and
// MaxQueries, are constants. ready, when non-nil, is the daemon's own
// readiness condition on top of "not draining".
func NewEdge(daemon string, cfg Config, ready func() error) *Edge {
	ctx, cancel := context.WithCancel(context.Background())
	e := &Edge{
		daemon: daemon, cfg: cfg.edgeDefaults(), mux: http.NewServeMux(), ready: ready,
		ctx: ctx, cancel: cancel,
	}
	e.mux.Handle("/", obs.HandlerWithReadiness(e.cfg.Registry, e.Ready))
	return e
}

// HandleFunc registers one of the daemon's endpoints.
func (e *Edge) HandleFunc(pattern string, h http.HandlerFunc) { e.mux.HandleFunc(pattern, h) }

// Logf emits an operational log line when the daemon wired a logger; tests
// leave it nil and stay quiet.
func (e *Edge) Logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// Draining reports whether BeginDrain has been called.
func (e *Edge) Draining() bool { return e.draining.Load() }

// Ready is the readiness probe behind /readyz: an error while draining (the
// instance should be pulled from rotation), else the daemon's own condition.
func (e *Edge) Ready() error {
	if e.Draining() {
		return errors.New("draining")
	}
	if e.ready != nil {
		return e.ready()
	}
	return nil
}

// Handler returns the full HTTP surface: the daemon's endpoints and the
// debug surface, wrapped with panic recovery — a panicking request answers
// 500 (when the header is still unsent) instead of net/http's connection
// teardown, so one poisoned request degrades to an error response.
func (e *Edge) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				http.Error(w, fmt.Sprintf("internal error: %v", v), http.StatusInternalServerError)
			}
		}()
		e.mux.ServeHTTP(w, r)
	})
}

// Start binds addr (":0" for an ephemeral port) and serves in a background
// goroutine; it returns the bound address. Request contexts descend from the
// edge's context so a later Drain can flush partial results.
func (e *Edge) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen on %s: %w", e.daemon, addr, err)
	}
	srv := &http.Server{
		Handler:     e.Handler(),
		BaseContext: func(net.Listener) context.Context { return e.ctx },
	}
	e.httpSrv.Store(srv)
	go srv.Serve(ln) // returns ErrServerClosed on shutdown; nothing to do with it
	return ln.Addr().String(), nil
}

// BeginDrain flips the daemon out of rotation: /readyz answers 503, new
// requests are refused with 503, and after grace the base context is
// cancelled so still-running batches stop between tasks and their handlers
// flush partial results (completed queries intact). Idempotent; it does not
// wait — pair with Drain or an http Shutdown.
func (e *Edge) BeginDrain(grace time.Duration) {
	e.drainOnce.Do(func() {
		e.draining.Store(true)
		if grace <= 0 {
			e.cancel()
			return
		}
		t := time.AfterFunc(grace, e.cancel)
		// Tie the timer to the base context so a caller that cancels early
		// does not leave a timer pending.
		context.AfterFunc(e.ctx, func() { t.Stop() })
	})
}

// Drain is the full graceful shutdown: BeginDrain(grace), then shut the
// HTTP listener down waiting (bounded by ctx) for in-flight handlers — which
// flush partial results once grace expires — to finish. Safe to call
// without Start (it then only runs the drain state machine).
func (e *Edge) Drain(ctx context.Context, grace time.Duration) error {
	e.BeginDrain(grace)
	var err error
	if srv := e.httpSrv.Load(); srv != nil {
		err = srv.Shutdown(ctx)
	}
	e.cancel()
	return err
}

// Close releases everything immediately (tests, error paths): in-flight
// searches are cancelled and the listener closed without waiting.
func (e *Edge) Close() error {
	e.BeginDrain(0)
	e.cancel()
	if srv := e.httpSrv.Load(); srv != nil {
		return srv.Close()
	}
	return nil
}

// errorResponse is the uniform JSON error body.
type errorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// WriteJSON answers status with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the connection is the only failure mode left here
}

// WriteError answers status with the uniform error body.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Status: status})
}

// SetRetryAfter attaches the Retry-After hint (whole seconds, minimum 1).
func SetRetryAfter(w http.ResponseWriter, d time.Duration) {
	w.Header().Set("Retry-After", strconv.Itoa(max(1, int(d.Round(time.Second)/time.Second))))
}

// decodeBody decodes a JSON request body of at most limit bytes into v.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	return json.NewDecoder(r.Body).Decode(v)
}

// DecodePost is the preamble of /reload on either daemon: POST only, refused
// while draining, body decoded into v. A field v does not have is refused, so
// a request written for another contract (a "verify_only" probe) is never
// taken for a swap. On false the refusal is written.
func (e *Edge) DecodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReloadBodyBytes))
	dec.DisallowUnknownFields()
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
	} else if e.Draining() {
		WriteError(w, http.StatusServiceUnavailable, "draining")
	} else if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
	} else {
		return true
	}
	return false
}

// Scope is one request's observability state: the request ID echoed on
// every outcome and the trace tree under construction (nil with tracing off —
// every span operation no-ops). It exists so a handler's many exit paths all
// converge on one Finish call that stamps outcome and status, closes the
// root span, and writes the tree.
type Scope struct {
	e       *Edge
	w       http.ResponseWriter
	arrival time.Time
	// RID is the request ID; Trace and its edge span Root are nil with
	// tracing off.
	RID   string
	Trace *reqtrace.Trace
	Root  *reqtrace.Span
	done  bool
}

// Begin opens a batch request's scope: it resolves the request ID (honoring
// an incoming X-Request-ID so multi-hop traces keep one handle), echoes it on
// the response immediately — every outcome carries it, success or shed —
// opens the trace tree when a tracer is attached, and refuses anything but
// POST and anything while draining. On false the refusal is written and the
// scope finished.
func (e *Edge) Begin(w http.ResponseWriter, r *http.Request) (*Scope, bool) {
	arrival := time.Now()
	wc := reqtrace.Extract(r.Header)
	if wc.RequestID == "" {
		wc.RequestID = reqtrace.NewRequestID()
	}
	sc := &Scope{e: e, w: w, arrival: arrival, RID: wc.RequestID}
	sc.Trace = e.cfg.Tracer.Begin(wc, "edge", arrival.UnixNano())
	sc.Root = sc.Trace.RootSpan()
	sc.Root.SetAttr("daemon", e.daemon)
	w.Header().Set(reqtrace.HeaderRequestID, sc.RID)
	if r.Method != http.MethodPost {
		return sc, sc.Reject(reqtrace.OutcomeRejected, http.StatusMethodNotAllowed, "POST only")
	}
	if e.Draining() {
		return sc, sc.Reject(reqtrace.OutcomeCancelled, http.StatusServiceUnavailable, "draining")
	}
	return sc, true
}

// stampDeadline records the request's effective deadline on the edge span
// (reqtrace.AttrDeadlineMS).
func (sc *Scope) stampDeadline(d time.Duration) {
	if sc.Root != nil {
		sc.Root.SetAttr(reqtrace.AttrDeadlineMS, strconv.FormatInt(d.Milliseconds(), 10))
	}
}

// Reject answers the uniform error body and finishes the scope; it returns
// false for a preamble to return.
func (sc *Scope) Reject(outcome string, status int, format string, args ...any) bool {
	WriteError(sc.w, status, format, args...)
	sc.Finish(outcome, status)
	return false
}

// Finish closes the request: root span ended with the total duration,
// outcome and HTTP status stamped, the tree written and flushed (a trace
// file must be complete the moment the response is on the wire — the smoke
// test and operators read it while the daemon runs).
// Idempotent; later calls no-op so error paths can finish early and fall
// through.
func (sc *Scope) Finish(outcome string, status int) {
	if sc.done {
		return
	}
	sc.done = true
	total := time.Since(sc.arrival)
	sc.Root.SetAttr(reqtrace.AttrStatus, strconv.Itoa(status))
	sc.Root.End(total.Nanoseconds())
	tracer := sc.e.cfg.Tracer
	if err := tracer.Finish(sc.Trace, outcome); err == nil {
		tracer.Flush()
	}
}

// batchRequest is a body that carries a query batch: SearchRequest and
// ShardSearchRequest.
type batchRequest interface{ batch() Batch }

// Batch is a decoded query batch, validated once DecodeBatch returns it.
type Batch struct {
	Residues []string
	Names    []string // parallel to Residues when the endpoint names its queries; nil otherwise
	// Timeout is what the client asked for (zero for none) going into
	// DecodeBatch, the request's deadline coming out.
	Timeout time.Duration
	// invalid is the endpoint's own validation failure ("" when there is
	// none); it is reported with 400 after the batch-size caps.
	invalid string
}

// DecodeBatch is the rest of a batch endpoint's preamble after Begin: decode
// req, refuse what can never run (an undecodable or oversized body, an empty
// or oversized batch, a query over blast.MaxQueryLen, malformed residues),
// resolve the deadline, and stamp query lengths and deadline on the edge
// span. On false the refusal is written and the scope finished.
func (sc *Scope) DecodeBatch(r *http.Request, req batchRequest) (Batch, bool) {
	cfg := &sc.e.cfg
	if err := decodeBody(sc.w, r, maxBodyBytes, req); err != nil {
		return Batch{}, sc.Reject(reqtrace.OutcomeRejected, http.StatusBadRequest, "decoding request: %v", err)
	}
	b := req.batch()
	if len(b.Residues) == 0 {
		return b, sc.Reject(reqtrace.OutcomeRejected, http.StatusBadRequest, "no queries")
	}
	if len(b.Residues) > MaxQueries {
		return b, sc.Reject(reqtrace.OutcomeRejected, http.StatusRequestEntityTooLarge,
			"%d queries exceeds the per-request cap of %d", len(b.Residues), MaxQueries)
	}
	if b.invalid != "" {
		return b, sc.Reject(reqtrace.OutcomeRejected, http.StatusBadRequest, "%s", b.invalid)
	}
	// Over-long and malformed sequences are refused before admission: a
	// request that can never run must not occupy a queue slot.
	for i, res := range b.Residues {
		status, msg := http.StatusRequestEntityTooLarge, ""
		if len(res) > blast.MaxQueryLen {
			msg = fmt.Sprintf("%d residues exceeds the %d-residue limit", len(res), blast.MaxQueryLen)
		} else if _, err := alphabet.Encode([]byte(res)); err != nil {
			status, msg = http.StatusBadRequest, err.Error()
		} else {
			continue
		}
		if b.Names != nil {
			return b, sc.Reject(reqtrace.OutcomeRejected, status, "query %d (%s): %s", i, b.Names[i], msg)
		}
		return b, sc.Reject(reqtrace.OutcomeRejected, status, "query %d: %s", i, msg)
	}
	if b.Timeout <= 0 {
		b.Timeout = cfg.DefaultTimeout
	}
	b.Timeout = min(b.Timeout, MaxTimeout)
	if sc.Root != nil {
		lens := make([]string, len(b.Residues))
		for i, res := range b.Residues {
			lens[i] = strconv.Itoa(len(res))
		}
		sc.Root.SetAttr(reqtrace.AttrQueryLens, strings.Join(lens, ","))
		sc.stampDeadline(b.Timeout)
	}
	return b, true
}

// RenderBatch is the /search response body of a finished batch: hits only
// for completed queries, the batch error (deadline, drain, a non-answering
// shard) reported as Incomplete. The daemon fills in what only it knows
// (generation, degraded mode, queue wait).
func RenderBatch(br *blast.BatchResult, names []string, searchDur, timeout time.Duration) SearchResponse {
	resp := SearchResponse{
		Incomplete: br.Err != nil,
		Results:    make([]QueryOutput, len(br.Results)),
		Stats: RequestStats{
			SearchMS:         float64(searchDur) / float64(time.Millisecond),
			EffectiveTimeout: timeout.String(),
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
	return resp
}

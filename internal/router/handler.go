package router

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/reqtrace"
	"repro/internal/server"
)

// The router frontend speaks the same /search wire protocol as the
// single-database daemon (internal/server types), extended with per-shard
// routing detail. A client that understands the monolithic response can read
// the sharded one unchanged — extra fields ride after "stats" — and a merged
// complete response carries byte-identical results to the monolithic daemon
// serving the unsharded container.

// ShardStatusWire is the wire form of one shard's routing outcome.
type ShardStatusWire struct {
	Shard  int    `json:"shard"`
	Worker string `json:"worker"`
	// Status is "ok", "shed" (replica backpressure, retryable), or "error".
	Status    string  `json:"status"`
	Completed int     `json:"completed_queries,omitempty"`
	Error     string  `json:"error,omitempty"`
	MS        float64 `json:"ms"`
}

// SearchResponse is the sharded /search response: the monolithic response
// plus the routing report. Incomplete (inherited) is true whenever a shard
// contributed nothing — those queries answer completed=false rather than
// fake zero-hit results.
type SearchResponse struct {
	server.SearchResponse
	Shards []ShardStatusWire `json:"shards"`
}

// errorResponse mirrors the monolithic daemon's uniform error body, with the
// routing report attached.
type errorResponse struct {
	Error  string            `json:"error"`
	Status int               `json:"status"`
	Shards []ShardStatusWire `json:"shards,omitempty"`
}

// FrontendConfig tunes the HTTP tier in front of a Router. Zero values
// select the defaults. Admission bounding lives in the shard daemons (their
// admission queues): the frontend only validates, scatters, and renders.
type FrontendConfig struct {
	// DefaultTimeout is the per-request deadline when the client sends none
	// (default 30s). The edge's other bounds are server.MaxTimeout and
	// server.MaxQueries.
	DefaultTimeout time.Duration
	// Registry serves /metrics (default obs.Default). Use the registry the
	// Router stamps so router_* numbers are visible.
	Registry *obs.Registry
	// Generation is reported as db_generation (default: constant 0).
	// mublastpr wires it to the oldest generation any shard daemon reported.
	Generation func() int64

	// Tracer, when set, stitches every routed request into a JSONL trace
	// tree: edge, then search holding scatter with per-shard children (each
	// nesting the shard's per-query six-stage pipeline spans) and merge,
	// linked by span IDs and correlated by the X-Request-ID echoed on every
	// outcome. Nil (the default) is free — every span operation no-ops.
	Tracer *reqtrace.Tracer
	// Logf receives operational log lines (sheds, shard failures) tagged
	// with the request ID. Nil disables logging (tests); the daemon wires
	// it to stderr.
	Logf func(format string, args ...any)
}

// Frontend is the HTTP surface of the scatter-gather tier: the serving edge
// it shares with the monolithic daemon (lifecycle, request scope, batch
// preamble, rendering, the debug endpoints) plus what is the router's own —
// /search over the scatter with its shed mapping, the rolling /reload, and
// /replicas.
type Frontend struct {
	*server.Edge
	rt         *Router
	generation func() int64
}

// NewFrontend wraps a router in the HTTP tier. Readiness fails while
// draining, and while any shard has zero healthy replicas — a fleet that can
// only produce guaranteed-incomplete merges pulls itself from upstream
// rotation.
func NewFrontend(rt *Router, cfg FrontendConfig) *Frontend {
	f := &Frontend{rt: rt, generation: cfg.Generation}
	if f.generation == nil {
		f.generation = func() int64 { return 0 }
	}
	f.Edge = server.NewEdge("mublastpr", server.Config{
		DefaultTimeout: cfg.DefaultTimeout, Registry: cfg.Registry, Tracer: cfg.Tracer, Logf: cfg.Logf,
	}, rt.HealthErr)
	f.HandleFunc("/search", f.handleSearch)
	f.HandleFunc("/reload", f.handleReload)
	f.HandleFunc("/replicas", f.handleReplicas)
	return f
}

// handleReplicas reports every replica's lifecycle state (ops visibility for
// the replica gate: in or out of rotation, and why).
func (f *Frontend) handleReplicas(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		server.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	server.WriteJSON(w, http.StatusOK, f.rt.ReplicaStates())
}

// Router returns the scatter-gather core the frontend serves.
func (f *Frontend) Router() *Router { return f.rt }

// Start binds addr (":0" for an ephemeral port) and serves in the
// background, returning the bound address. It also starts the router's
// health prober (a no-op when nothing is probeable).
func (f *Frontend) Start(addr string) (string, error) {
	bound, err := f.Edge.Start(addr)
	if err == nil {
		f.rt.Start()
	}
	return bound, err
}

// Drain is the edge's graceful shutdown, then the prober's.
func (f *Frontend) Drain(ctx context.Context, grace time.Duration) error {
	err := f.Edge.Drain(ctx, grace)
	f.rt.Close()
	return err
}

// Close tears everything down immediately.
func (f *Frontend) Close() error {
	f.rt.Close()
	return f.Edge.Close()
}

func statusesWire(rep *Report) []ShardStatusWire {
	out := make([]ShardStatusWire, len(rep.Shards))
	for i := range rep.Shards {
		st := &rep.Shards[i]
		w := ShardStatusWire{
			Shard: st.Shard, Worker: st.Worker,
			Completed: st.Completed,
			MS:        float64(st.Nanos) / float64(time.Millisecond),
		}
		switch {
		case st.OK:
			w.Status = "ok"
		case st.Shed:
			w.Status = "shed"
			w.Error = st.Err.Error()
		default:
			w.Status = "error"
			w.Error = st.Err.Error()
		}
		out[i] = w
	}
	return out
}

func (f *Frontend) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req server.SearchRequest
	sc, ok := f.Begin(w, r)
	if !ok {
		return
	}
	b, ok := sc.DecodeBatch(r, &req)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), b.Timeout)
	defer cancel()
	// The scatter tier hangs its scatter and merge spans under the search
	// span it finds in the context (a no-op nil with tracing off), as the
	// monolithic daemon's tree has the engine's under its search span; remote
	// workers read the IDs back out to stamp their outbound propagation
	// headers — one request ID across router and shard daemons.
	searchStart := time.Now()
	searchSpan := sc.Root.Child("search", searchStart.UnixNano())
	ctx = reqtrace.ContextWithSpan(ctx, searchSpan)
	var traceID string
	if sc.Trace != nil {
		traceID = sc.Trace.TraceID
	}
	ctx = reqtrace.ContextWithIDs(ctx, sc.RID, traceID)

	br, rep, err := f.rt.Search(ctx, b.Residues)
	searchDur := time.Since(searchStart)
	searchSpan.End(searchDur.Nanoseconds())
	if err != nil {
		// fail answers the error body with the routing report attached.
		fail := func(outcome string, status int) {
			server.WriteJSON(w, status, errorResponse{Error: err.Error(), Status: status, Shards: statusesWire(rep)})
			sc.Finish(outcome, status)
		}
		switch {
		case errors.Is(err, ErrAllShardsUnavailable) && rep.Failed() == 0:
			// Pure overload: every shard shed. 429 with the aggregated hint,
			// exactly like the monolithic daemon's queue-full shed.
			server.SetRetryAfter(w, rep.RetryAfter)
			f.Logf("request %s shed: all %d shards saturated, retry after %v", sc.RID, len(rep.Shards), rep.RetryAfter)
			fail(reqtrace.OutcomeShed, http.StatusTooManyRequests)
		default:
			if rep.Sheds() > 0 {
				server.SetRetryAfter(w, rep.RetryAfter)
			}
			f.Logf("request %s failed: %d shed, %d failed of %d shards: %v",
				sc.RID, rep.Sheds(), rep.Failed(), len(rep.Shards), err)
			outcome := reqtrace.OutcomeError
			if ctx.Err() == context.DeadlineExceeded {
				outcome = reqtrace.OutcomeTimeout
			}
			fail(outcome, http.StatusServiceUnavailable)
		}
		return
	}

	resp := SearchResponse{
		SearchResponse: server.RenderBatch(br, b.Names, searchDur, b.Timeout),
		Shards:         statusesWire(rep),
	}
	resp.Generation = f.generation()
	// A partial (some-shards-shed) success still tells the client when to
	// retry for the full answer.
	if rep.Sheds() > 0 {
		server.SetRetryAfter(w, rep.RetryAfter)
	}
	server.WriteJSON(w, http.StatusOK, resp)
	if br.Err != nil {
		// Honest partial: a 200 whose batch carries an error (deadline or a
		// non-answering shard) counts against the deadline budget, not as a
		// clean success.
		f.Logf("request %s partial: %v", sc.RID, br.Err)
		sc.Finish(reqtrace.OutcomeTimeout, http.StatusOK)
		return
	}
	sc.Finish(reqtrace.OutcomeOK, http.StatusOK)
}

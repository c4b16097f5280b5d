// Package reqtrace is the cross-tier distributed-tracing layer: it mints a
// request ID and trace context at the serving edge, propagates both through
// HTTP headers (daemon to daemon) and context.Context (tier to tier inside a
// process), and stitches every tier's work — edge handling, admission-queue
// wait, scatter, per-shard search with the engine's six-stage pipeline spans
// nested inside, and merge — into one JSONL trace tree per request.
//
// The hot-path contract matches internal/obs: handles are resolved at
// construction, the trace sink is optional, and a nil *Trace (tracing off)
// makes every span operation a nil-check no-op with zero allocation. Span
// materialization happens at tier boundaries (request scope), never inside
// the engine's per-task hot path — the six stage spans are built from the
// per-query Stats the pipeline already carries (AttachQuerySpan). The same
// tree format serves the CLI: mublastp -trace writes one tree per run.
package reqtrace

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// HTTP propagation headers. X-Request-ID doubles as the client-facing
// correlation handle: the edge echoes it on every response (success, shed,
// timeout) so a client can quote it back and an operator can grep the trace
// file and daemon logs for it.
const (
	// HeaderRequestID carries the request ID. Minted at the edge when the
	// client did not send one; honored when it did (so an upstream proxy or
	// routing tier keeps one ID across hops).
	HeaderRequestID = "X-Request-ID"
	// HeaderTraceID carries the 64-bit trace ID in hex.
	HeaderTraceID = "X-Trace-ID"
	// HeaderParentSpan carries the caller's span ID in hex; the receiving
	// tier parents its root span under it, which is what stitches a
	// multi-daemon trace into one tree.
	HeaderParentSpan = "X-Parent-Span"
)

// Request outcomes, stamped on every trace tree. The vocabulary mirrors the
// serving layer's honest-degradation contract: a shed is not a timeout is not
// an error.
const (
	OutcomeOK        = "ok"        // 200, all admitted work ran
	OutcomeShed      = "shed"      // 429, refused at admission (queue full / all shards shed)
	OutcomeTimeout   = "timeout"   // 503, deadline expired (queue or search)
	OutcomeCancelled = "cancelled" // client went away / drain cancelled it
	OutcomeRejected  = "rejected"  // 4xx, invalid request (never admitted)
	OutcomeError     = "error"     // 5xx, internal failure
)

// Attributes of the edge root span that carry the request's facts no span
// measures: how it was answered, how big it was and what deadline it ran
// under. The serving edge stamps them.
const (
	AttrStatus     = "status"      // HTTP status of the answer
	AttrQueryLens  = "query_lens"  // comma-separated residue lengths, in batch order
	AttrDeadlineMS = "deadline_ms" // effective deadline (after caps and degraded mode)
	AttrDegraded   = "degraded"    // "true" when admitted in degraded mode
)

// idGen mints process-unique 64-bit IDs: a random 32-bit prefix drawn once at
// start plus an atomic counter. Minting is one atomic add — no lock, no
// allocation, no syscall per ID.
type idGen struct {
	prefix uint64
	ctr    atomic.Uint64
}

func newIDGen() *idGen {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a fixed prefix: IDs stay process-unique via the
		// counter, they just lose cross-process entropy.
		b = [4]byte{0xad, 0x0b, 0x5e, 0x77}
	}
	return &idGen{prefix: uint64(binary.BigEndian.Uint32(b[:])) << 32}
}

func (g *idGen) next() uint64 { return g.prefix | (g.ctr.Add(1) & 0xffffffff) }

var ids = newIDGen()

// NewTraceID mints a fresh trace ID in hex wire form.
func NewTraceID() string { return fmt.Sprintf("%016x", ids.next()) }

// NewRequestID mints a request ID: short, log-greppable, unique per process.
func NewRequestID() string { return fmt.Sprintf("req-%012x", ids.next()&0xffffffffffff) }

// Span is one timed operation in a request's trace tree. Children nest the
// next tier down: the edge span holds admission and search, a scatter span
// holds one child per shard, a shard span holds per-query spans, and a query
// span holds the engine's six pipeline-stage spans. Appending children is
// safe from concurrent goroutines (the scatter path adds shard spans in
// parallel); reading the tree is safe only after the request finishes.
type Span struct {
	Name     string            `json:"name"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	StartNS  int64             `json:"start_unix_ns"`
	Nanos    int64             `json:"nanos"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*Span           `json:"children,omitempty"`

	mu sync.Mutex
}

// Child starts a nested span under s. startNS is the child's absolute start
// time in unix nanoseconds (the caller clocks it; reqtrace never reads the
// clock so tiers stay in control of what is timed).
func (s *Span) Child(name string, startNS int64) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		Name:     name,
		SpanID:   fmt.Sprintf("%016x", ids.next()),
		ParentID: s.SpanID,
		StartNS:  startNS,
	}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// End closes the span with its duration. Nil-safe.
func (s *Span) End(nanos int64) {
	if s == nil {
		return
	}
	s.Nanos = nanos
}

// SetAttr attaches a key=value attribute. Nil-safe; allocates the map
// lazily so attribute-free spans stay small.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[key] = value
	s.mu.Unlock()
}

// StaticChild appends an already-timed child span (used to graft the
// engine's per-stage timings, which are measured by the pipeline itself,
// under a query span). Nil-safe.
func (s *Span) StaticChild(name string, startNS, nanos int64) *Span {
	c := s.Child(name, startNS)
	c.End(nanos)
	return c
}

// AttachQuerySpan grafts one completed query's six-stage pipeline spans
// under parent (a search or shard span) as "query:<name>" and returns the
// query span. Stage spans are duration attributions, not placements — stages
// of one query interleave across scheduler tasks, so each stage child
// carries the search phase's start as its nominal start time. Materializing
// stages allocates: call with tracing on (non-nil parent) only.
func AttachQuerySpan(parent *Span, startNS int64, name string, stages []obs.Span) *Span {
	q := parent.Child("query:"+name, startNS)
	var total int64
	for _, sp := range stages {
		q.StaticChild("stage:"+sp.Stage, startNS, sp.Nanos)
		total += sp.Nanos
	}
	q.End(total)
	return q
}

// ShardPart is one shard's part of a batch as AttachShardQuerySpans reads it
// (blast.ShardResult): per query, whether it completed and its stage spans.
type ShardPart interface {
	NumQueries() int
	QueryCompleted(i int) bool
	QueryStageSpans(i int) []obs.Span
}

// AttachShardQuerySpans is AttachQuerySpan over one shard's part of a batch,
// queries named by index: what a shard daemon hangs under its search span
// and the router under each shard's scatter span. No-op with tracing off.
func AttachShardQuerySpans(parent *Span, startNS int64, part ShardPart) {
	for i := 0; parent != nil && i < part.NumQueries(); i++ {
		if part.QueryCompleted(i) {
			AttachQuerySpan(parent, startNS, strconv.Itoa(i), part.QueryStageSpans(i))
		}
	}
}

// Walk visits the span and every descendant, depth-first. Nil-safe. Only
// valid once the tree is quiescent (after the request finished).
func (s *Span) Walk(visit func(*Span)) {
	if s == nil {
		return
	}
	visit(s)
	for _, c := range s.Children {
		c.Walk(visit)
	}
}

// Find returns the first descendant (or s itself) with the given name, or
// nil.
func (s *Span) Find(name string) *Span {
	var out *Span
	s.Walk(func(sp *Span) {
		if out == nil && sp.Name == name {
			out = sp
		}
	})
	return out
}

// Trace is one request's stitched trace tree, written as a single JSONL
// line when the request finishes. A nil *Trace is the tracing-off state:
// every method no-ops.
type Trace struct {
	TraceID   string `json:"trace_id"`
	RequestID string `json:"request_id"`
	// Daemon names the process that emitted the tree ("mublastpd",
	// "mublastpr"); Outcome is the request's final disposition (one of
	// the Outcome* constants: ok, shed, timeout, cancelled, error,
	// rejected).
	Daemon  string `json:"daemon"`
	Outcome string `json:"outcome"`
	Root    *Span  `json:"root"`
}

// Context carries the wire half of a trace across process and tier hops:
// the IDs alone, no tree. The zero value means "no incoming context".
type Context struct {
	RequestID string
	TraceID   string
	ParentID  string // caller's span, hex; roots parented under it stitch
}

// Extract reads the propagation headers from an incoming request. Missing
// headers leave fields empty; the edge mints what is absent.
func Extract(h http.Header) Context {
	return Context{
		RequestID: h.Get(HeaderRequestID),
		TraceID:   h.Get(HeaderTraceID),
		ParentID:  h.Get(HeaderParentSpan),
	}
}

// Inject writes the propagation headers for an outgoing hop: the shared
// request and trace IDs plus the calling span as the parent, so the next
// daemon's root span links under this one.
func Inject(h http.Header, requestID, traceID string, parent *Span) {
	if requestID != "" {
		h.Set(HeaderRequestID, requestID)
	}
	if traceID != "" {
		h.Set(HeaderTraceID, traceID)
	}
	if parent != nil {
		h.Set(HeaderParentSpan, parent.SpanID)
	}
}

// idsKey is the context key carrying the request's wire Context (the IDs an
// outbound RPC injects into its propagation headers).
type idsKey struct{}

// ContextWithIDs returns a context carrying the request and trace IDs for
// downstream RPC clients — a remote shard worker reads them back with
// IDsFromContext and Injects them on the outgoing hop, so one request keeps
// one ID across router and shard daemons.
func ContextWithIDs(ctx context.Context, requestID, traceID string) context.Context {
	if requestID == "" && traceID == "" {
		return ctx
	}
	return context.WithValue(ctx, idsKey{}, Context{RequestID: requestID, TraceID: traceID})
}

// IDsFromContext returns the propagation IDs attached with ContextWithIDs;
// empty fields mean "mint downstream" (the shard daemon's edge mints what is
// absent, so a missing context degrades to uncorrelated but valid traces).
func IDsFromContext(ctx context.Context) (requestID, traceID string) {
	if ctx == nil {
		return "", ""
	}
	wc, _ := ctx.Value(idsKey{}).(Context)
	return wc.RequestID, wc.TraceID
}

// spanKey is the context key carrying the active parent span.
type spanKey struct{}

// ContextWithSpan returns a context carrying sp as the active parent span
// for downstream tiers (the router reads it to hang scatter spans under the
// edge span).
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the active parent span, or nil when tracing is
// off (no span was attached). Callers treat nil as "don't trace" — Child on
// the nil result is already a no-op, so no branching is required.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Tracer is the per-daemon trace sink: it begins request traces and writes
// finished trees as JSONL, one line per request. A nil *Tracer is valid and
// free — Begin returns a nil *Trace whose span operations all no-op — so
// the daemons thread one handle unconditionally and pay nothing with
// tracing off.
type Tracer struct {
	daemon string

	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer
}

// NewTracer builds a tracer writing trace trees to w. daemon is stamped on
// every tree ("mublastpd", "mublastpr").
func NewTracer(daemon string, w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	t := &Tracer{daemon: daemon, bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// NewTracerFile opens (creates/truncates) path as a trace sink (the
// daemons' -trace flag).
func NewTracerFile(daemon, path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("reqtrace: %w", err)
	}
	return NewTracer(daemon, f), nil
}

// Begin starts a request trace from the (possibly empty) incoming wire
// context: absent IDs are minted, present ones are honored so multi-hop
// traces share one trace ID. rootName names the root span ("edge"); startNS
// is its absolute start time. On a nil Tracer it returns nil, the
// tracing-off trace.
func (t *Tracer) Begin(wc Context, rootName string, startNS int64) *Trace {
	if t == nil {
		return nil
	}
	tr := &Trace{
		TraceID:   wc.TraceID,
		RequestID: wc.RequestID,
		Daemon:    t.daemon,
	}
	if tr.TraceID == "" {
		tr.TraceID = NewTraceID()
	}
	if tr.RequestID == "" {
		tr.RequestID = NewRequestID()
	}
	tr.Root = &Span{
		Name:     rootName,
		SpanID:   fmt.Sprintf("%016x", ids.next()),
		ParentID: wc.ParentID,
		StartNS:  startNS,
	}
	return tr
}

// Finish stamps the outcome and writes the completed tree as one JSONL
// line. Nil-safe on both receiver and trace.
func (t *Tracer) Finish(tr *Trace, outcome string) error {
	if t == nil || tr == nil {
		return nil
	}
	tr.Outcome = outcome
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.enc.Encode(tr)
}

// Flush drains the buffered sink.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bw.Flush()
}

// Close flushes and closes the underlying writer when owned.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	err := t.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// RootSpan returns the trace's root span (nil on a nil trace, keeping the
// whole span API no-op).
func (tr *Trace) RootSpan() *Span {
	if tr == nil {
		return nil
	}
	return tr.Root
}

// IDs returns the request and trace IDs ("", "" on a nil trace).
func (tr *Trace) IDs() (requestID, traceID string) {
	if tr == nil {
		return "", ""
	}
	return tr.RequestID, tr.TraceID
}

// SpanIDs returns every span ID in the tree, sorted — the linkage check the
// smoke test and tests use to assert one stitched tree.
func (tr *Trace) SpanIDs() []string {
	if tr == nil {
		return nil
	}
	var out []string
	tr.Root.Walk(func(s *Span) { out = append(out, s.SpanID) })
	sort.Strings(out)
	return out
}

// Linked verifies the tree's internal linkage: every non-root span's
// ParentID is the SpanID of its structural parent, and span IDs are unique.
// It returns a descriptive error for the first violation, a missing root or
// null child included (a decoded tree is external input).
func (tr *Trace) Linked() error {
	if tr == nil {
		return nil
	}
	if tr.Root == nil {
		return fmt.Errorf("trace %q has no root span", tr.RequestID)
	}
	seen := map[string]bool{}
	var check func(s *Span) error
	check = func(s *Span) error {
		if s.SpanID == "" {
			return fmt.Errorf("span %q has no span_id", s.Name)
		}
		if seen[s.SpanID] {
			return fmt.Errorf("duplicate span_id %s (%q)", s.SpanID, s.Name)
		}
		seen[s.SpanID] = true
		for _, c := range s.Children {
			if c == nil {
				return fmt.Errorf("span %q has a null child", s.Name)
			}
			if c.ParentID != s.SpanID {
				return fmt.Errorf("span %q parent_id %s != parent %q span_id %s",
					c.Name, c.ParentID, s.Name, s.SpanID)
			}
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	return check(tr.Root)
}

// ReadTraces decodes a JSONL trace-tree stream (the -trace file) back into
// trees, for tests and offline analysis.
func ReadTraces(r io.Reader) ([]*Trace, error) {
	dec := json.NewDecoder(r)
	var out []*Trace
	for {
		var tr Trace
		if err := dec.Decode(&tr); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("reqtrace: decoding trace %d: %w", len(out), err)
		}
		out = append(out, &tr)
	}
}

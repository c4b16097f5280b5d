package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/blast"
	"repro/internal/obs"
	"repro/internal/reqtrace"
)

// TestFrontendTraceTreeAndIdentity: a routed request with tracing on yields
// one stitched trace tree — edge, search holding scatter (per-shard spans
// with nested per-query six-stage pipeline spans) and merge — and
// byte-identical results to the same request with tracing off.
func TestFrontendTraceTreeAndIdentity(t *testing.T) {
	_, shards, queries := fixture(t)
	rt, err := New(shardWorkers(t, shards), Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}

	var traceBuf bytes.Buffer
	fe := NewFrontend(rt, FrontendConfig{
		Registry: obs.NewRegistry(),
		Tracer:   reqtrace.NewTracer("mublastpr", &traceBuf),
	})
	rec := postSearch(t, fe.Handler(), searchBody(queries))
	if rec.Code != http.StatusOK {
		t.Fatalf("traced search = %d: %s", rec.Code, rec.Body.String())
	}
	rid := rec.Header().Get(reqtrace.HeaderRequestID)
	if rid == "" {
		t.Fatalf("no X-Request-ID on traced response")
	}

	rt2, err := New(shardWorkers(t, shards), Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	feOff := NewFrontend(rt2, FrontendConfig{Registry: obs.NewRegistry()})
	recOff := postSearch(t, feOff.Handler(), searchBody(queries))
	if recOff.Code != http.StatusOK {
		t.Fatalf("untraced search = %d", recOff.Code)
	}

	// Byte-identity of the merged results with tracing on vs off.
	var on, off SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &on); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(recOff.Body.Bytes(), &off); err != nil {
		t.Fatal(err)
	}
	onJSON, _ := json.Marshal(on.Results)
	offJSON, _ := json.Marshal(off.Results)
	if !bytes.Equal(onJSON, offJSON) {
		t.Fatalf("results differ with tracing on vs off:\non:  %s\noff: %s", onJSON, offJSON)
	}

	traces, err := reqtrace.ReadTraces(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("got %d trace trees, want 1", len(traces))
	}
	tr := traces[0]
	if tr.RequestID != rid || tr.Daemon != "mublastpr" || tr.Outcome != reqtrace.OutcomeOK {
		t.Fatalf("trace header = %q/%q/%q", tr.RequestID, tr.Daemon, tr.Outcome)
	}
	if err := tr.Linked(); err != nil {
		t.Fatalf("trace tree not linked: %v", err)
	}
	// Both daemons' trees run edge -> search: the router's scatter and
	// merge hang under its search span.
	search := tr.RootSpan().Find("search")
	if search == nil || search.ParentID != tr.RootSpan().SpanID {
		t.Fatalf("no search span under the edge span: %+v", search)
	}
	for _, name := range []string{"scatter", "merge"} {
		if sp := search.Find(name); sp == nil || sp.ParentID != search.SpanID {
			t.Fatalf("no %s span under the search span: %+v", name, sp)
		}
	}
	scatter := search.Find("scatter")
	if len(scatter.Children) != len(shards) {
		t.Fatalf("scatter has %d shard children, want %d", len(scatter.Children), len(shards))
	}
	for s := range shards {
		ss := scatter.Find("shard" + strconv.Itoa(s))
		if ss == nil {
			t.Fatalf("scatter missing shard%d span", s)
		}
		if ss.Attrs["status"] != "ok" || ss.Attrs["worker"] == "" {
			t.Fatalf("shard%d attrs = %v", s, ss.Attrs)
		}
		// Each shard completed every query; each query span nests exactly
		// the six pipeline stages.
		if len(ss.Children) != len(queries) {
			t.Fatalf("shard%d has %d query spans, want %d", s, len(ss.Children), len(queries))
		}
		for _, q := range ss.Children {
			if !strings.HasPrefix(q.Name, "query:") {
				t.Fatalf("shard%d child %q is not a query span", s, q.Name)
			}
			if len(q.Children) != 6 {
				t.Fatalf("%s under shard%d has %d stage children, want 6", q.Name, s, len(q.Children))
			}
			for _, st := range q.Children {
				if !strings.HasPrefix(st.Name, "stage:") {
					t.Fatalf("query child %q is not a stage span", st.Name)
				}
			}
		}
	}

	if root := tr.RootSpan(); root.Nanos < search.Nanos {
		t.Fatalf("edge span %d ns is shorter than its search span %d ns", root.Nanos, search.Nanos)
	}

	// The edge root carries the batch facts as attribute strings: status
	// and the query lengths in batch order.
	attrs := tr.RootSpan().Attrs
	if got := attrs[reqtrace.AttrStatus]; got != "200" {
		t.Fatalf("root %s = %q, want 200", reqtrace.AttrStatus, got)
	}
	lens := make([]string, len(queries))
	for i, q := range queries {
		lens[i] = strconv.Itoa(len(q))
	}
	if got, want := attrs[reqtrace.AttrQueryLens], strings.Join(lens, ","); got != want {
		t.Fatalf("root %s = %q, want %q", reqtrace.AttrQueryLens, got, want)
	}
}

// TestFrontendShedTracedAndLogged: an all-shards-shed 429 still carries the
// request ID, records a shed outcome with a shed shard span, and logs with
// the request ID.
func TestFrontendShedTracedAndLogged(t *testing.T) {
	_, shards, queries := fixture(t)
	workers := make([][]Worker, len(shards))
	for s := range shards {
		name := "b" + strconv.Itoa(s)
		workers[s] = []Worker{&stubWorker{name: name, search: func(ctx context.Context, q []string, shard, n int) (*blast.ShardResult, error) {
			return nil, &BusyError{Worker: name, RetryAfter: time.Second}
		}}}
	}
	rt, err := New(workers, Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	var logLines []string
	fe := NewFrontend(rt, FrontendConfig{
		Registry: obs.NewRegistry(),
		Tracer:   reqtrace.NewTracer("mublastpr", &traceBuf),
		Logf: func(format string, args ...any) {
			logLines = append(logLines, fmt.Sprintf(format, args...))
		},
	})
	rec := postSearch(t, fe.Handler(), searchBody(queries))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("all-shed = %d, want 429", rec.Code)
	}
	rid := rec.Header().Get(reqtrace.HeaderRequestID)
	if rid == "" {
		t.Fatalf("shed response carries no X-Request-ID")
	}
	traces, err := reqtrace.ReadTraces(bytes.NewReader(traceBuf.Bytes()))
	if err != nil || len(traces) != 1 {
		t.Fatalf("traces = %d, err %v", len(traces), err)
	}
	if traces[0].Outcome != reqtrace.OutcomeShed {
		t.Fatalf("trace outcome %q, want shed", traces[0].Outcome)
	}
	if ss := traces[0].RootSpan().Find("shard0"); ss == nil || ss.Attrs["status"] != "shed" {
		t.Fatalf("shard0 span not marked shed: %+v", ss)
	}
	if tr := traces[0]; tr.RequestID != rid || tr.RootSpan().Attrs[reqtrace.AttrStatus] != "429" {
		t.Fatalf("shed trace request id %q status %q, want %q 429",
			tr.RequestID, tr.RootSpan().Attrs[reqtrace.AttrStatus], rid)
	}
	var logged bool
	for _, l := range logLines {
		if strings.Contains(l, "shed") && strings.Contains(l, rid) {
			logged = true
		}
	}
	if !logged {
		t.Fatalf("shed not logged with request id %s: %v", rid, logLines)
	}
}

// TestRetriedShardTraceShape: when a shard's first replica fails and its
// second answers, the shard span holds exactly one attempt span, the
// "attempt:retry" on the second replica with status ok; the failed first
// attempt has no span of its own, and a shard that answered first time has
// no attempt span at all.
func TestRetriedShardTraceShape(t *testing.T) {
	_, shards, queries := fixture(t)
	workers := make([][]Worker, len(shards))
	for s, sd := range shards {
		workers[s] = []Worker{delegate("s"+strconv.Itoa(s), sd)}
	}
	down := &stubWorker{name: "down", search: func(context.Context, []string, int, int) (*blast.ShardResult, error) {
		return nil, errors.New("replica down")
	}}
	workers[0] = []Worker{down, delegate("up", shards[0])}
	rt, err := New(workers, Options{Registry: obs.NewRegistry(),
		Resilience: ResilienceConfig{ProbeInterval: -1, RetryBudget: 2, RetryBackoff: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	fe := NewFrontend(rt, FrontendConfig{
		Registry: obs.NewRegistry(),
		Tracer:   reqtrace.NewTracer("mublastpr", &traceBuf),
	})
	if rec := postSearch(t, fe.Handler(), searchBody(queries)); rec.Code != http.StatusOK {
		t.Fatalf("search = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rt.met.Retries.Value(); got != 1 {
		t.Fatalf("Retries = %d, want 1 (the first pick is the failing replica)", got)
	}
	traces, err := reqtrace.ReadTraces(&traceBuf)
	if err != nil || len(traces) != 1 {
		t.Fatalf("traces = %d, err %v", len(traces), err)
	}
	for s := range shards {
		ss := traces[0].RootSpan().Find("shard" + strconv.Itoa(s))
		if ss == nil || ss.Attrs["status"] != "ok" {
			t.Fatalf("shard%d span = %+v, want status ok", s, ss)
		}
		var attempts []*reqtrace.Span
		for _, c := range ss.Children {
			if strings.HasPrefix(c.Name, "attempt:") {
				attempts = append(attempts, c)
			}
		}
		if s != 0 {
			if len(attempts) != 0 {
				t.Fatalf("shard%d answered first time but has attempt spans %v", s, attempts[0].Name)
			}
			continue
		}
		if ss.Attrs["worker"] != "up" {
			t.Fatalf("shard0 answered by %q, want up", ss.Attrs["worker"])
		}
		if len(attempts) != 1 {
			t.Fatalf("shard0 has %d attempt spans, want exactly one", len(attempts))
		}
		if a := attempts[0]; a.Name != "attempt:retry" || a.Attrs["worker"] != "up" || a.Attrs["status"] != "ok" {
			t.Fatalf("shard0 attempt span %q attrs %v, want attempt:retry worker=up status=ok", a.Name, a.Attrs)
		}
	}
}

// TestFrontendUpstreamContextStitches: a request arriving with trace headers
// (as a load balancer or an upstream router would send) keeps the upstream
// request ID and parents its edge span under the upstream span — and so does
// the next hop: every shard daemon's tree carries the same request and trace
// IDs, its edge span parented under the router's shard<i> span.
func TestFrontendUpstreamContextStitches(t *testing.T) {
	_, shards, queries := fixture(t)
	shardTraces := make([]*syncBuffer, len(shards))
	for s := range shardTraces {
		shardTraces[s] = &syncBuffer{}
	}
	rt, err := New(shardWorkers(t, shards, shardTraces...), Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	fe := NewFrontend(rt, FrontendConfig{
		Registry: obs.NewRegistry(),
		Tracer:   reqtrace.NewTracer("mublastpr", &traceBuf),
	})
	raw, _ := json.Marshal(searchBody(queries))
	req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(raw))
	reqtrace.Inject(req.Header, "req-upstream", "00000000feedface", &reqtrace.Span{SpanID: "00000000deadbeef"})
	rec := httptest.NewRecorder()
	fe.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get(reqtrace.HeaderRequestID); got != "req-upstream" {
		t.Fatalf("X-Request-ID = %q, want upstream id echoed", got)
	}
	traces, err := reqtrace.ReadTraces(&traceBuf)
	if err != nil || len(traces) != 1 {
		t.Fatalf("traces = %d, err %v", len(traces), err)
	}
	tr := traces[0]
	if tr.RequestID != "req-upstream" || tr.TraceID != "00000000feedface" {
		t.Fatalf("upstream ids not honored: %+v", tr)
	}
	if tr.RootSpan().ParentID != "00000000deadbeef" {
		t.Fatalf("edge span not parented under upstream: %q", tr.RootSpan().ParentID)
	}

	for s, buf := range shardTraces {
		shardSpan := tr.RootSpan().Find("shard" + strconv.Itoa(s))
		if shardSpan == nil {
			t.Fatalf("router tree has no shard%d span", s)
		}
		// The shard daemon writes its tree once its response is on the wire,
		// so it may land just after the router's.
		var st []*reqtrace.Trace
		waitUntil(t, fmt.Sprintf("shard %d's trace", s), func() bool {
			buf.mu.Lock()
			defer buf.mu.Unlock()
			st, err = reqtrace.ReadTraces(bytes.NewReader(buf.b.Bytes()))
			return err == nil && len(st) == 1
		})
		sh := st[0]
		if sh.Daemon != "mublastpd" || sh.RequestID != "req-upstream" || sh.TraceID != "00000000feedface" {
			t.Errorf("shard %d tree %q: request %q trace %q, want the router's req-upstream / 00000000feedface",
				s, sh.Daemon, sh.RequestID, sh.TraceID)
		}
		if root := sh.RootSpan(); root.Name != "edge" || root.ParentID != shardSpan.SpanID {
			t.Errorf("shard %d: root %q parented under %q, want edge under the router's shard%d span %q",
				s, root.Name, root.ParentID, s, shardSpan.SpanID)
		}
	}
}

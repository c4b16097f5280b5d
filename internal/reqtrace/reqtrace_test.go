package reqtrace

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestNilTraceIsFree(t *testing.T) {
	// The entire span API must no-op on the tracing-off (nil) values.
	var tracer *Tracer
	tr := tracer.Begin(Context{}, "edge", 0)
	if tr != nil {
		t.Fatalf("nil tracer Begin = %v, want nil", tr)
	}
	root := tr.RootSpan()
	if root != nil {
		t.Fatalf("nil trace RootSpan = %v, want nil", root)
	}
	child := root.Child("search", 0)
	if child != nil {
		t.Fatalf("nil span Child = %v, want nil", child)
	}
	child.SetAttr("k", "v")
	child.End(5)
	child.StaticChild("stage", 0, 1)
	if got := tr.SpanIDs(); got != nil {
		t.Fatalf("nil trace SpanIDs = %v, want nil", got)
	}
	if err := tracer.Finish(tr, OutcomeOK); err != nil {
		t.Fatalf("nil tracer Finish: %v", err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatalf("nil tracer Close: %v", err)
	}
	rid, tid := tr.IDs()
	if rid != "" || tid != "" {
		t.Fatalf("nil trace IDs = %q,%q", rid, tid)
	}
}

func TestNilSpanOpsAllocateNothing(t *testing.T) {
	var sp *Span
	allocs := testing.AllocsPerRun(100, func() {
		c := sp.Child("x", 0)
		c.SetAttr("k", "v")
		c.End(1)
	})
	if allocs != 0 {
		t.Fatalf("nil-span ops allocated %v objects/op, want 0", allocs)
	}
}

func TestTraceTreeLinkage(t *testing.T) {
	var buf bytes.Buffer
	tracer := NewTracer("testd", &buf)
	tr := tracer.Begin(Context{}, "edge", 100)
	root := tr.RootSpan()
	adm := root.Child("admission", 110)
	adm.End(10)
	search := root.Child("search", 120)
	q := search.Child("query:q1", 120)
	q.StaticChild("stage:hit_detect", 120, 7)
	q.End(30)
	search.End(40)
	root.End(60)
	if err := tr.Linked(); err != nil {
		t.Fatalf("Linked: %v", err)
	}
	if err := tracer.Finish(tr, OutcomeOK); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	got, err := ReadTraces(&buf)
	if err != nil {
		t.Fatalf("ReadTraces: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d traces, want 1", len(got))
	}
	rt := got[0]
	if rt.Daemon != "testd" || rt.Outcome != OutcomeOK {
		t.Fatalf("round-tripped daemon/outcome = %q/%q", rt.Daemon, rt.Outcome)
	}
	if err := rt.Linked(); err != nil {
		t.Fatalf("round-tripped Linked: %v", err)
	}
	if len(rt.SpanIDs()) != 5 {
		t.Fatalf("round-tripped tree has %d spans, want 5", len(rt.SpanIDs()))
	}
	if rt.RootSpan().Find("stage:hit_detect") == nil {
		t.Fatalf("stage span lost in round trip")
	}
	if got := rt.RootSpan().Find("admission").Nanos; got != 10 {
		t.Fatalf("admission span nanos = %d, want 10", got)
	}

	// Decoded trees are external input: a missing root or a null child is
	// a violation to report, not a nil to dereference.
	for line, want := range map[string]string{
		`{}`: "no root span",
		`{"root":{"name":"edge","span_id":"1","children":[null]}}`: "null child",
	} {
		trs, err := ReadTraces(strings.NewReader(line))
		if err != nil || len(trs) != 1 {
			t.Fatalf("ReadTraces(%s) = %d trees, %v", line, len(trs), err)
		}
		if err := trs[0].Linked(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Linked(%s) = %v, want an error naming %q", line, err, want)
		}
	}
}

func TestConcurrentChildAppend(t *testing.T) {
	tracer := NewTracer("testd", &bytes.Buffer{})
	tr := tracer.Begin(Context{}, "edge", 0)
	scatter := tr.RootSpan().Child("scatter", 0)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := scatter.Child("shard", 0)
			sp.SetAttr("worker", "w")
			sp.End(int64(i))
		}(i)
	}
	wg.Wait()
	if len(scatter.Children) != 32 {
		t.Fatalf("scatter has %d children, want 32", len(scatter.Children))
	}
	if err := tr.Linked(); err != nil {
		t.Fatalf("Linked after concurrent append: %v", err)
	}
}

func TestTracerConcurrentFinish(t *testing.T) {
	var buf bytes.Buffer
	tracer := NewTracer("testd", &buf)
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := tracer.Begin(Context{}, "edge", 0)
			tr.RootSpan().StaticChild("stage:sort", 0, 1)
			tracer.Finish(tr, OutcomeOK)
		}()
	}
	wg.Wait()
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	traces, err := ReadTraces(&buf)
	if err != nil {
		t.Fatalf("concurrent Finish tore a line: %v", err)
	}
	if len(traces) != n {
		t.Errorf("concurrent Finish wrote %d trees, want %d", len(traces), n)
	}
}

func TestTracerClosesOwnedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tracer, err := NewTracerFile("testd", path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Finish(tracer.Begin(Context{}, "batch", 0), OutcomeOK); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tracer.c.(*os.File).Close(); err == nil {
		t.Error("Tracer.Close did not close the file it opened")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Errorf("trace file not flushed as newline-terminated JSONL: %q", data)
	}
}

func TestHeaderPropagationStitchesTrace(t *testing.T) {
	tracer := NewTracer("edge-daemon", &bytes.Buffer{})
	tr := tracer.Begin(Context{}, "edge", 0)
	shardCall := tr.RootSpan().Child("shard0", 0)

	h := make(http.Header)
	rid, tid := tr.IDs()
	Inject(h, rid, tid, shardCall)

	wc := Extract(h)
	if wc.RequestID != rid || wc.TraceID != tid || wc.ParentID != shardCall.SpanID {
		t.Fatalf("Extract = %+v, want ids %s/%s parent %s", wc, rid, tid, shardCall.SpanID)
	}

	// The downstream daemon begins its trace from the extracted context:
	// same IDs, root parented under the caller's span.
	downstream := NewTracer("shard-daemon", &bytes.Buffer{})
	dtr := downstream.Begin(wc, "edge", 0)
	drid, dtid := dtr.IDs()
	if drid != rid || dtid != tid {
		t.Fatalf("downstream ids %s/%s, want %s/%s", drid, dtid, rid, tid)
	}
	if dtr.RootSpan().ParentID != shardCall.SpanID {
		t.Fatalf("downstream root parent %s, want %s", dtr.RootSpan().ParentID, shardCall.SpanID)
	}
}

func TestExtractEmptyMintsOnBegin(t *testing.T) {
	tracer := NewTracer("d", &bytes.Buffer{})
	a := tracer.Begin(Context{}, "edge", 0)
	b := tracer.Begin(Context{}, "edge", 0)
	arid, atid := a.IDs()
	brid, btid := b.IDs()
	if arid == "" || atid == "" {
		t.Fatalf("Begin minted empty ids: %q %q", arid, atid)
	}
	if arid == brid || atid == btid {
		t.Fatalf("consecutive traces share ids: %q %q", arid, atid)
	}
}

func TestContextSpanPlumbing(t *testing.T) {
	if sp := SpanFromContext(nil); sp != nil {
		t.Fatalf("SpanFromContext(nil) = %v", sp)
	}
	tracer := NewTracer("d", &bytes.Buffer{})
	tr := tracer.Begin(Context{}, "edge", 0)
	ctx := ContextWithSpan(t.Context(), tr.RootSpan())
	if got := SpanFromContext(ctx); got != tr.RootSpan() {
		t.Fatalf("SpanFromContext = %v, want root", got)
	}
	// Attaching a nil span leaves the context untouched (tracing off).
	if ctx2 := ContextWithSpan(t.Context(), nil); SpanFromContext(ctx2) != nil {
		t.Fatalf("nil span attached to context")
	}
}

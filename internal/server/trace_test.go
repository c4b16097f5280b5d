package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/reqtrace"
)

// postSearch sends a /search body and returns the response with its decoded
// SearchResponse (when 200).
func postSearch(t *testing.T, url, body string) (*http.Response, *SearchResponse) {
	t.Helper()
	resp, err := http.Post(url+"/search", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SearchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, &sr
}

func TestTracingProducesStitchedTreeAndIdenticalResults(t *testing.T) {
	f := newFixture(t)
	body := `{"queries":[{"name":"q1","residues":"` + f.query + `"}]}`

	// Traced server.
	var traceBuf bytes.Buffer
	tracer := reqtrace.NewTracer("mublastpd", &traceBuf)
	_, urlOn := f.start(t, Config{Tracer: tracer})
	respOn, srOn := postSearch(t, urlOn, body)
	if respOn.StatusCode != http.StatusOK {
		t.Fatalf("traced search = %d", respOn.StatusCode)
	}
	rid := respOn.Header.Get(reqtrace.HeaderRequestID)
	if rid == "" {
		t.Fatalf("no X-Request-ID on traced response")
	}

	// Untraced server over the same database.
	f2 := newFixture(t)
	_, urlOff := f2.start(t, Config{})
	respOff, srOff := postSearch(t, urlOff, body)
	if respOff.StatusCode != http.StatusOK {
		t.Fatalf("untraced search = %d", respOff.StatusCode)
	}
	if respOff.Header.Get(reqtrace.HeaderRequestID) == "" {
		t.Fatalf("no X-Request-ID on untraced response")
	}

	// Byte-identity of the search results with tracing on vs off.
	onJSON, _ := json.Marshal(srOn.Results)
	offJSON, _ := json.Marshal(srOff.Results)
	if !bytes.Equal(onJSON, offJSON) {
		t.Fatalf("results differ with tracing on vs off:\non:  %s\noff: %s", onJSON, offJSON)
	}
	if len(srOn.Results) == 0 || !srOn.Results[0].Completed || len(srOn.Results[0].Hits) == 0 {
		t.Fatalf("traced search found nothing to compare: %+v", srOn.Results)
	}

	// One stitched trace tree, linked span IDs, the expected structure.
	traces, err := reqtrace.ReadTraces(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("got %d trace trees, want 1", len(traces))
	}
	tr := traces[0]
	if tr.RequestID != rid {
		t.Fatalf("trace request id %q != header %q", tr.RequestID, rid)
	}
	if tr.Outcome != reqtrace.OutcomeOK || tr.Daemon != "mublastpd" {
		t.Fatalf("trace outcome/daemon = %q/%q", tr.Outcome, tr.Daemon)
	}
	if err := tr.Linked(); err != nil {
		t.Fatalf("trace tree not linked: %v", err)
	}
	for _, name := range []string{"edge", "admission", "search", "query:q1"} {
		if tr.RootSpan().Find(name) == nil {
			t.Fatalf("trace tree missing span %q", name)
		}
	}
	// All six pipeline stages nest under the query span.
	q := tr.RootSpan().Find("query:q1")
	if len(q.Children) != 6 {
		t.Fatalf("query span has %d stage children, want 6", len(q.Children))
	}
	for _, c := range q.Children {
		if !strings.HasPrefix(c.Name, "stage:") {
			t.Fatalf("query child %q is not a stage span", c.Name)
		}
	}
	if root := tr.RootSpan(); root.Find("search").Nanos <= 0 || root.Nanos < root.Find("search").Nanos {
		t.Fatalf("search span %d ns, want positive and within the edge span's %d ns",
			root.Find("search").Nanos, root.Nanos)
	}

	// The edge root carries the batch facts as attribute strings: status,
	// query lengths, the effective deadline, and no degraded mark.
	attrs := tr.RootSpan().Attrs
	if got := attrs[reqtrace.AttrStatus]; got != "200" {
		t.Fatalf("root %s = %q, want 200", reqtrace.AttrStatus, got)
	}
	if got, want := attrs[reqtrace.AttrQueryLens], strconv.Itoa(len(f.query)); got != want {
		t.Fatalf("root %s = %q, want %q", reqtrace.AttrQueryLens, got, want)
	}
	if got, ok := attrs[reqtrace.AttrDegraded]; ok {
		t.Fatalf("root %s = %q on a healthy server", reqtrace.AttrDegraded, got)
	}
	if got := attrs[reqtrace.AttrDeadlineMS]; got != "30000" {
		t.Fatalf("root %s = %q, want default 30000", reqtrace.AttrDeadlineMS, got)
	}
}

func TestIncomingRequestIDHonored(t *testing.T) {
	f := newFixture(t)
	var traceBuf bytes.Buffer
	_, url := f.start(t, Config{Tracer: reqtrace.NewTracer("mublastpd", &traceBuf)})

	req, _ := http.NewRequest(http.MethodPost, url+"/search",
		strings.NewReader(`{"queries":[{"name":"q1","residues":"`+f.query+`"}]}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqtrace.HeaderRequestID, "req-from-upstream")
	req.Header.Set(reqtrace.HeaderTraceID, "00000000deadbeef")
	req.Header.Set(reqtrace.HeaderParentSpan, "00000000cafebabe")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(reqtrace.HeaderRequestID); got != "req-from-upstream" {
		t.Fatalf("X-Request-ID = %q, want the incoming id echoed", got)
	}
	traces, err := reqtrace.ReadTraces(&traceBuf)
	if err != nil || len(traces) != 1 {
		t.Fatalf("traces = %d, err %v", len(traces), err)
	}
	tr := traces[0]
	if tr.RequestID != "req-from-upstream" || tr.TraceID != "00000000deadbeef" {
		t.Fatalf("incoming ids not honored: %+v", tr)
	}
	if tr.RootSpan().ParentID != "00000000cafebabe" {
		t.Fatalf("root not parented under upstream span: %q", tr.RootSpan().ParentID)
	}
}

func TestRequestIDOnEveryOutcome(t *testing.T) {
	f := newFixture(t)
	var traceBuf bytes.Buffer
	_, url := f.start(t, Config{Tracer: reqtrace.NewTracer("mublastpd", &traceBuf)})

	// Rejected: bad body.
	resp, err := http.Post(url+"/search", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(reqtrace.HeaderRequestID) == "" {
		t.Fatalf("rejected outcome: status %d, X-Request-ID %q",
			resp.StatusCode, resp.Header.Get(reqtrace.HeaderRequestID))
	}

	// Rejected: GET.
	resp, err = http.Get(url + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(reqtrace.HeaderRequestID) == "" {
		t.Fatalf("405 outcome carries no X-Request-ID")
	}

	traces, err := reqtrace.ReadTraces(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	for _, tr := range traces {
		if tr.Outcome != reqtrace.OutcomeRejected {
			t.Fatalf("outcome %q, want rejected", tr.Outcome)
		}
	}
}

func TestShedCarriesRequestIDAndRecord(t *testing.T) {
	f := newFixture(t)
	var traceBuf bytes.Buffer
	var logMu sync.Mutex
	var logLines []string
	srv, url := f.start(t, Config{
		Queue:       1,
		Concurrency: 1,
		Tracer:      reqtrace.NewTracer("mublastpd", &traceBuf),
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logLines = append(logLines, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})

	// Hold the single run token so followers queue, then overflow the
	// 1-slot queue: the third concurrent request must shed.
	release := make(chan struct{})
	running := make(chan struct{}, 8)
	srv.testHookRunning = func() {
		running <- struct{}{}
		<-release
	}
	body := `{"queries":[{"name":"q1","residues":"` + f.query + `"}]}`
	errs := make(chan error, 1)
	go func() {
		resp, err := http.Post(url+"/search", "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		errs <- err
	}()
	<-running // the first request holds the token

	// Fill the queue slot.
	queued := make(chan struct{})
	go func() {
		resp, err := http.Post(url+"/search", "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		close(queued)
		_ = err
	}()
	// Wait for the queue depth to reach 1 so the next request overflows.
	deadline := time.Now().Add(5 * time.Second)
	for srv.adm.depth() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(url+"/search", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request = %d, want 429", resp.StatusCode)
	}
	shedRID := resp.Header.Get(reqtrace.HeaderRequestID)
	if shedRID == "" {
		t.Fatalf("shed response carries no X-Request-ID")
	}
	close(release)
	<-queued
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	var shedTrace bool
	traces, err := reqtrace.ReadTraces(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		if tr.Outcome == reqtrace.OutcomeShed && tr.RequestID == shedRID {
			shedTrace = true
		}
	}
	if !shedTrace {
		t.Fatalf("no shed trace with request id %s: %d traces", shedRID, len(traces))
	}
	var logged bool
	logMu.Lock()
	for _, l := range logLines {
		if strings.Contains(l, "shed") && strings.Contains(l, shedRID) {
			logged = true
		}
	}
	logMu.Unlock()
	if !logged {
		t.Fatalf("shed not logged with request id %s: %v", shedRID, logLines)
	}
}

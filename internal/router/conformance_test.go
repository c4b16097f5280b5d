package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/blast"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/reqtrace"
	"repro/internal/server"
)

// syncBuffer is a trace sink the daemon writes while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) traces(t *testing.T) []*reqtrace.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	traces, err := reqtrace.ReadTraces(bytes.NewReader(s.b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

// edgeUser is what the two daemons' HTTP tiers have in common: *server.Server
// and *Frontend both satisfy it.
type edgeUser interface {
	Start(addr string) (string, error)
	BeginDrain(grace time.Duration)
	Draining() bool
	Drain(ctx context.Context, grace time.Duration) error
	Close() error
}

// conformanceEndpoint is one batch endpoint of one daemon.
type conformanceEndpoint struct {
	name  string
	url   string
	shard bool // speaks the /shard/search request form
	edge  edgeUser
	trace *syncBuffer
	reg   *obs.Registry // what the daemon (or, for mublastpr, its router) stamps
}

// startConformanceDaemons brings up a mublastpd over the monolithic fixture
// and a mublastpr over its three shards, the two with the same request
// bounds and a trace sink each, and returns the three batch endpoints they
// serve. The shards are shard daemons, or in-process delegates when
// inProcess.
func startConformanceDaemons(t *testing.T, inProcess bool) []conformanceEndpoint {
	t.Helper()
	db, shards, _ := fixture(t)
	p := blast.DefaultParams()
	p.Threads = 1

	pdTrace, prTrace := &syncBuffer{}, &syncBuffer{}
	pdReg, prReg := obs.NewRegistry(), obs.NewRegistry()
	pd := server.New(blast.NewSession(db, p), p, server.Config{
		Registry: pdReg, Tracer: reqtrace.NewTracer("mublastpd", pdTrace),
	})
	var workers [][]Worker
	if inProcess {
		for s, sd := range shards {
			workers = append(workers, []Worker{delegate("s"+strconv.Itoa(s), sd)})
		}
	} else {
		workers = shardWorkers(t, shards)
	}
	rt, err := New(workers, Options{Registry: prReg})
	if err != nil {
		t.Fatal(err)
	}
	pr := NewFrontend(rt, FrontendConfig{
		Registry: obs.NewRegistry(), Tracer: reqtrace.NewTracer("mublastpr", prTrace),
	})
	var addrs [2]string
	for i, e := range []edgeUser{pd, pr} {
		if addrs[i], err = e.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
	}
	return []conformanceEndpoint{
		{name: "mublastpd /search", url: "http://" + addrs[0] + "/search", edge: pd, trace: pdTrace, reg: pdReg},
		{name: "mublastpd /shard/search", url: "http://" + addrs[0] + "/shard/search", shard: true, edge: pd, trace: pdTrace, reg: pdReg},
		{name: "mublastpr /search", url: "http://" + addrs[1] + "/search", edge: pr, trace: prTrace, reg: prReg},
	}
}

// batchBody renders one batch in the endpoint's request form: named queries
// for /search, bare residues plus the slice assertion for /shard/search.
func (ep conformanceEndpoint) batchBody(names, residues []string, timeoutMS int64) string {
	var body any
	if ep.shard {
		body = server.ShardSearchRequest{Queries: residues, Shard: 0, NumShards: 1, TimeoutMS: timeoutMS}
	} else {
		req := server.SearchRequest{TimeoutMS: timeoutMS}
		for i := range residues {
			req.Queries = append(req.Queries, server.QueryInput{Name: names[i], Residues: residues[i]})
		}
		body = req
	}
	raw, _ := json.Marshal(body)
	return string(raw)
}

func (ep conformanceEndpoint) do(t *testing.T, method, body, rid string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, ep.url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set(reqtrace.HeaderRequestID, rid)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %v", ep.name, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// TestEdgeConformance sends the same requests to the three batch endpoints
// the two daemons serve and requires the same refusals from each: status,
// Content-Type, the X-Request-ID echo, and the exact error body, recorded
// from the binaries before the two HTTP tiers were folded into one edge
// (the over-long query's refusal came later). The two /search endpoints must
// agree byte for byte; /shard/search differs only where its request form
// does (its queries carry no names).
func TestEdgeConformance(t *testing.T) {
	eps := startConformanceDaemons(t, false)
	_, _, queries := fixture(t)
	good := queries[:1]
	overNames, overResidues := make([]string, server.MaxQueries+1), make([]string, server.MaxQueries+1)
	for i := range overResidues {
		overNames[i], overResidues[i] = "q"+strconv.Itoa(i), "MKT"
	}
	overLong := strings.Repeat("M", blast.MaxQueryLen+1)

	for i, tc := range []struct {
		name     string
		method   string
		raw      string   // sent verbatim when set
		names    []string // otherwise a batch of these
		residues []string
		status   int
		want     string // error body on the /search endpoints
		shard    string // error body on /shard/search when it differs
	}{
		{name: "GET", method: http.MethodGet, status: http.StatusMethodNotAllowed,
			want: `{"error":"POST only","status":405}`},
		{name: "undecodable JSON", raw: "{", status: http.StatusBadRequest,
			want: `{"error":"decoding request: unexpected EOF","status":400}`},
		{name: "empty batch", status: http.StatusBadRequest,
			want: `{"error":"no queries","status":400}`},
		{name: "MaxQueries+1", names: overNames, residues: overResidues,
			status: http.StatusRequestEntityTooLarge,
			want:   `{"error":"65 queries exceeds the per-request cap of 64","status":413}`},
		{name: "query over MaxQueryLen", names: []string{"ok", "long"}, residues: []string{"MKT", overLong},
			status: http.StatusRequestEntityTooLarge,
			want:   `{"error":"query 1 (long): 1048579 residues exceeds the 1048578-residue limit","status":413}`,
			shard:  `{"error":"query 1: 1048579 residues exceeds the 1048578-residue limit","status":413}`},
		{name: "bad residue, named", names: []string{"ok", "bad"}, residues: []string{"MKT", "MK4T"},
			status: http.StatusBadRequest,
			want:   `{"error":"query 1 (bad): alphabet: invalid residue '4' at position 2","status":400}`,
			shard:  `{"error":"query 1: alphabet: invalid residue '4' at position 2","status":400}`},
		{name: "bad residue, unnamed", names: []string{""}, residues: []string{"M!"},
			status: http.StatusBadRequest,
			want:   `{"error":"query 0 (): alphabet: invalid residue '!' at position 1","status":400}`,
			shard:  `{"error":"query 0: alphabet: invalid residue '!' at position 1","status":400}`},
	} {
		for _, ep := range eps {
			method, body := tc.method, tc.raw
			if method == "" {
				method = http.MethodPost
			}
			if body == "" && method == http.MethodPost {
				body = ep.batchBody(tc.names, tc.residues, 0)
			}
			rid := "conf-" + strconv.Itoa(i)
			resp, got := ep.do(t, method, body, rid)
			want := tc.want
			if ep.shard && tc.shard != "" {
				want = tc.shard
			}
			if resp.StatusCode != tc.status || got != want+"\n" {
				t.Errorf("%s, %s: status %d body %q, want %d %q", ep.name, tc.name, resp.StatusCode, got, tc.status, want+"\n")
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s, %s: Content-Type %q", ep.name, tc.name, ct)
			}
			if echo := resp.Header.Get(reqtrace.HeaderRequestID); echo != rid {
				t.Errorf("%s, %s: X-Request-ID %q, want the client's %q", ep.name, tc.name, echo, rid)
			}
		}
	}

	// Refused at the door means never queued and never scattered.
	for _, ep := range eps {
		snap := ep.reg.Snapshot()
		admitted, _ := snap["requests_admitted"].(int64)
		routed, _ := snap["router_requests"].(int64)
		if admitted != 0 || routed != 0 {
			t.Errorf("%s: refused requests reached the engine: %d admitted, %d routed", ep.name, admitted, routed)
		}
	}

	// A deadline above MaxTimeout is clamped, not refused: the request runs,
	// /search reports the effective value, and every endpoint's trace
	// root carries it. Without a client id the edge mints one.
	for _, ep := range eps {
		resp, body := ep.do(t, http.MethodPost, ep.batchBody([]string{"q"}, good, 3*server.MaxTimeout.Milliseconds()), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s, clamped deadline: status %d: %s", ep.name, resp.StatusCode, body)
		}
		rid := resp.Header.Get(reqtrace.HeaderRequestID)
		if rid == "" {
			t.Errorf("%s: no X-Request-ID minted", ep.name)
		}
		if !ep.shard {
			var sr server.SearchResponse
			if err := json.Unmarshal([]byte(body), &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Stats.EffectiveTimeout != "2m0s" {
				t.Errorf("%s: effective_timeout %q, want MaxTimeout 2m0s", ep.name, sr.Stats.EffectiveTimeout)
			}
		}
		waitUntil(t, ep.name+" trace of the clamped request", func() bool {
			for _, tr := range ep.trace.traces(t) {
				if tr.RequestID == rid {
					attrs := tr.RootSpan().Attrs
					if d, lens := attrs[reqtrace.AttrDeadlineMS], attrs[reqtrace.AttrQueryLens]; d != "120000" ||
						tr.Outcome != reqtrace.OutcomeOK || lens != strconv.Itoa(len(good[0])) {
						t.Errorf("%s: trace outcome %q %s %q %s %q, want ok, 120000, %d", ep.name, tr.Outcome,
							reqtrace.AttrDeadlineMS, d, reqtrace.AttrQueryLens, lens, len(good[0]))
					}
					return true
				}
			}
			return false
		})
	}

	// Draining refuses every batch endpoint the same way.
	for _, ep := range eps {
		ep.edge.BeginDrain(0)
	}
	for _, ep := range eps {
		resp, got := ep.do(t, http.MethodPost, ep.batchBody([]string{"q"}, good, 0), "conf-drain")
		if want := `{"error":"draining","status":503}` + "\n"; resp.StatusCode != http.StatusServiceUnavailable || got != want {
			t.Errorf("%s, draining: status %d body %q, want 503 %q", ep.name, resp.StatusCode, got, want)
		}
		if echo := resp.Header.Get(reqtrace.HeaderRequestID); echo != "conf-drain" {
			t.Errorf("%s, draining: X-Request-ID %q", ep.name, echo)
		}
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestEdgeLifecycle runs one drain over both users of the serving edge: a
// request in flight at BeginDrain(grace) is cut off when the grace expires
// and still flushes an honest partial 200, new requests are refused with
// 503, /readyz fails, Drain returns once the held request has answered, and
// closing twice is harmless. mublastpr's shards are in process here: a
// drain cancels the router's RPCs to shard daemons, so over real shard
// daemons the held request fails with 503 instead of flushing a partial.
func TestEdgeLifecycle(t *testing.T) {
	_, _, queries := fixture(t)
	task := faultinject.NewSite("sched.task")
	t.Cleanup(faultinject.Disable)
	for _, ep := range startConformanceDaemons(t, true) {
		if ep.shard {
			continue // one batch endpoint per daemon is enough to hold it busy
		}
		// Every scheduler task sleeps, so the batch outlives the grace.
		if err := faultinject.Enable("sched.task=delay:100ms", 1); err != nil {
			t.Fatal(err)
		}
		type reply struct {
			status int
			sr     server.SearchResponse
		}
		held := make(chan reply, 1)
		go func() {
			resp, err := http.Post(ep.url, "application/json",
				strings.NewReader(ep.batchBody([]string{"a", "b"}, queries, 0)))
			if err != nil {
				held <- reply{status: -1}
				return
			}
			defer resp.Body.Close()
			var r reply
			r.status = resp.StatusCode
			_ = json.NewDecoder(resp.Body).Decode(&r.sr)
			held <- r
		}()
		waitUntil(t, ep.name+" request in flight", func() bool { return task.Fired() > 0 })

		ep.edge.BeginDrain(10 * time.Millisecond)
		if !ep.edge.Draining() {
			t.Errorf("%s: not draining after BeginDrain", ep.name)
		}
		for probe, want := range map[string]int{"/healthz": http.StatusOK, "/readyz": http.StatusServiceUnavailable} {
			resp, err := http.Get(strings.TrimSuffix(ep.url, "/search") + probe)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s: %s while draining = %d, want %d", ep.name, probe, resp.StatusCode, want)
			}
		}
		if resp, body := ep.do(t, http.MethodPost, ep.batchBody([]string{"q"}, queries[:1], 0), ""); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s: new request while draining = %d, want 503 (%s)", ep.name, resp.StatusCode, body)
		}

		r := <-held
		faultinject.Disable()
		if r.status != http.StatusOK {
			t.Fatalf("%s: held request = %d, want 200 with partial results", ep.name, r.status)
		}
		if !r.sr.Incomplete || len(r.sr.Results) != 2 {
			t.Errorf("%s: drained request incomplete=%v with %d results, want an honest partial of 2", ep.name, r.sr.Incomplete, len(r.sr.Results))
		}
		for _, q := range r.sr.Results {
			if !q.Completed && len(q.Hits) != 0 {
				t.Errorf("%s: cut-off query %s carries hits", ep.name, q.Name)
			}
		}

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := ep.edge.Drain(ctx, 10*time.Millisecond); err != nil {
			t.Errorf("%s: Drain: %v", ep.name, err)
		}
		cancel()
		if err := ep.edge.Close(); err != nil {
			t.Errorf("%s: Close after Drain: %v", ep.name, err)
		}
		if err := ep.edge.Close(); err != nil {
			t.Errorf("%s: second Close: %v", ep.name, err)
		}
	}
}

package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestOverloadSheds is the bounded-overload gate: with one run token held and
// the wait queue saturated, every excess request is shed with 429 and a
// Retry-After hint, the shed/admitted counters match exactly what clients
// observed, and every admitted request still answers byte-identically to a
// direct library call once the congestion clears.
func TestOverloadSheds(t *testing.T) {
	f := newFixture(t)
	gate := make(chan struct{})
	srv := newGatedServer(t, f, gate, Config{
		Queue:       2,
		Concurrency: 1,
		// Keep the degrader out of this test's way: it has its own test.
		DegradeAfter: time.Hour,
	})
	base := serveGated(t, srv)
	want := wantHits(t, f.dbA, f.query)

	// One request holds the single run token at its gate; two more fill the
	// wait queue.
	const admitted = 3
	results := make(chan *SearchResponse, admitted)
	var wg sync.WaitGroup
	for i := 0; i < admitted; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sr := searchOnce(t, base, f.query)
			results <- sr
		}()
		if i == 0 {
			// The holder must own the token before the queue fills, or a
			// queued request could grab it instead and leave the holder
			// re-gated.
			waitFor(t, func() bool { return srv.adm.inflight.Load() == 1 }, "holder running")
		}
	}
	waitFor(t, func() bool { return srv.adm.depth() == 2 }, "wait queue full")

	// Every request past the queue bound must be refused immediately.
	const excess = 5
	for i := 0; i < excess; i++ {
		resp, data := postJSON(t, base+"/search", SearchRequest{
			Queries: []QueryInput{{Name: "q", Residues: f.query}},
		})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overload request %d: status %d, want 429 (%s)", i, resp.StatusCode, data)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("overload request %d: 429 without Retry-After", i)
		}
	}
	if n := srv.met.Shed.Value(); n != excess {
		t.Errorf("requests_shed = %d, want %d", n, excess)
	}
	if d := srv.met.QueueDepth.Value(); d != 2 {
		t.Errorf("queue_depth gauge = %v, want 2 while saturated", d)
	}

	// Clear the congestion: everything admitted must complete correctly.
	close(gate)
	wg.Wait()
	close(results)
	for sr := range results {
		if !sr.Results[0].Completed {
			t.Fatalf("admitted request not completed: %s", sr.Results[0].Error)
		}
		if !reflect.DeepEqual(sr.Results[0].Hits, want) {
			t.Error("admitted request served hits that differ from a direct library call")
		}
	}
	if n := srv.met.Admitted.Value(); n != admitted {
		t.Errorf("requests_admitted = %d, want %d", n, admitted)
	}
	if n := srv.met.TimedOut.Value(); n != 0 {
		t.Errorf("requests_timed_out = %d, want 0", n)
	}
	if d := srv.met.QueueDepth.Value(); d != 0 {
		t.Errorf("queue_depth gauge = %v, want 0 after drain", d)
	}
}

// TestOverloadQueuedTimeout: a request whose deadline expires while it is
// still waiting for a run token is shed as timed out (503 + Retry-After +
// requests_timed_out), never run late.
func TestOverloadQueuedTimeout(t *testing.T) {
	f := newFixture(t)
	gate := make(chan struct{})
	srv := newGatedServer(t, f, gate, Config{
		Queue:        4,
		Concurrency:  1,
		DegradeAfter: time.Hour,
	})
	base := serveGated(t, srv)

	held := make(chan *SearchResponse, 1)
	go func() {
		_, sr := searchOnce(t, base, f.query)
		held <- sr
	}()
	waitFor(t, func() bool { return srv.adm.inflight.Load() == 1 }, "holder running")

	resp, data := postJSON(t, base+"/search", SearchRequest{
		Queries:   []QueryInput{{Name: "q", Residues: f.query}},
		TimeoutMS: 30,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-timeout request: status %d, want 503 (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queued-timeout 503 without Retry-After")
	}
	if n := srv.met.TimedOut.Value(); n != 1 {
		t.Errorf("requests_timed_out = %d, want 1", n)
	}
	if n := srv.met.Shed.Value(); n != 0 {
		t.Errorf("requests_timed_out leaked into requests_shed: %d", n)
	}

	close(gate)
	sr := <-held
	if !sr.Results[0].Completed {
		t.Fatalf("held request not completed: %s", sr.Results[0].Error)
	}
	if n := srv.met.Admitted.Value(); n != 1 {
		t.Errorf("requests_admitted = %d, want 1 (the holder only)", n)
	}
}

// TestDegradedMode: sustained queue pressure trips degraded mode — requests
// admitted in that mode get the shorter deadline and the smaller batch cap,
// both reported honestly — and the mode recovers once the queue drains.
func TestDegradedMode(t *testing.T) {
	f := newFixture(t)
	gate := make(chan struct{})
	srv := newGatedServer(t, f, gate, Config{
		Queue:       4,
		Concurrency: 1,
		// DegradeAfter < 0 resolves to zero dwell: the mode trips on the
		// first sample at or over the high watermark (queue depth 3).
		DegradeAfter: -1,
		// Degraded mode shrinks the deadline to a quarter of this.
		DefaultTimeout: 20 * time.Second,
	})
	base := serveGated(t, srv)

	var wg sync.WaitGroup
	post := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			searchOnce(t, base, f.query)
		}()
	}
	post()
	waitFor(t, func() bool { return srv.adm.inflight.Load() == 1 }, "holder running")
	for i := 0; i < 3; i++ {
		post()
	}
	waitFor(t, func() bool { return srv.Degraded() }, "degraded mode tripped")
	if v := srv.met.Degraded.Value(); v != 1 {
		t.Errorf("degraded_mode gauge = %v, want 1", v)
	}

	// A request sampled in degraded mode: batch capped at degradedMaxQueries
	// of its degradedMaxQueries+2 queries, deadline shrunk, both reported in
	// the response.
	queries := make([]QueryInput, degradedMaxQueries+2)
	for i := range queries {
		queries[i] = QueryInput{Name: "q", Residues: f.query}
	}
	degradedResp := make(chan *SearchResponse, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, data := postJSON(t, base+"/search", SearchRequest{Queries: queries})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("degraded request: status %d (%s)", resp.StatusCode, data)
			degradedResp <- nil
			return
		}
		sr := new(SearchResponse)
		if err := json.Unmarshal(data, sr); err != nil {
			t.Errorf("decoding degraded response: %v", err)
			degradedResp <- nil
			return
		}
		degradedResp <- sr
	}()
	// The degraded request must sample the mode and join the queue before the
	// congestion clears, or it would be admitted into a calm server.
	waitFor(t, func() bool { return srv.adm.depth() == 4 }, "degraded request queued")

	close(gate)
	sr := <-degradedResp
	wg.Wait()
	if sr == nil {
		t.Fatal("degraded request failed")
	}
	if !sr.Degraded {
		t.Error("request admitted under pressure not flagged degraded")
	}
	if sr.Truncated != 2 || len(sr.Results) != degradedMaxQueries {
		t.Errorf("degraded truncation: truncated=%d results=%d, want 2 and %d", sr.Truncated, len(sr.Results), degradedMaxQueries)
	}
	if sr.Stats.EffectiveTimeout != "5s" {
		t.Errorf("degraded effective timeout = %s, want 5s", sr.Stats.EffectiveTimeout)
	}
	want := wantHits(t, f.dbA, f.query)
	for i, out := range sr.Results {
		if !out.Completed {
			t.Fatalf("degraded query %d not completed: %s", i, out.Error)
		}
		if !reflect.DeepEqual(out.Hits, want) {
			t.Errorf("degraded query %d hits differ from a direct library call", i)
		}
	}

	// Queue is empty now; the next admission samples calm and recovers.
	_, sr2 := searchOnce(t, base, f.query)
	if sr2.Degraded {
		t.Error("degraded mode did not recover after the queue drained")
	}
	if srv.Degraded() {
		t.Error("degrader still tripped after recovery sample")
	}
	if v := srv.met.Degraded.Value(); v != 0 {
		t.Errorf("degraded_mode gauge = %v, want 0 after recovery", v)
	}
}

// newGatedServer builds a server whose admitted requests block on gate before
// searching — the deterministic congestion source for the overload tests.
func newGatedServer(t *testing.T, f *fixture, gate chan struct{}, cfg Config) *Server {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	srv := New(f.ses, f.params, cfg)
	srv.testHookRunning = func() { <-gate }
	return srv
}

func serveGated(t *testing.T, srv *Server) string {
	t.Helper()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return "http://" + addr
}

package router

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/blast"
	"repro/internal/obs"
	"repro/internal/server"
)

func postSearch(t *testing.T, h http.Handler, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func searchBody(queries []string) server.SearchRequest {
	var req server.SearchRequest
	for i, q := range queries {
		req.Queries = append(req.Queries, server.QueryInput{Name: "q" + string(rune('0'+i)), Residues: q})
	}
	return req
}

// TestFrontendMatchesMonolithicWire: the sharded /search response must carry
// the same hits as a direct monolithic search — the HTTP analogue of the
// merge invariant.
func TestFrontendMatchesMonolithicWire(t *testing.T) {
	db, shards, queries := fixture(t)
	mono, err := db.SearchBatchCtx(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(shardWorkers(t, shards), Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	fe := NewFrontend(rt, FrontendConfig{Registry: obs.NewRegistry()})
	rec := postSearch(t, fe.Handler(), searchBody(queries))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Incomplete || len(resp.Shards) != 3 {
		t.Fatalf("response header wrong: incomplete=%v shards=%d", resp.Incomplete, len(resp.Shards))
	}
	for _, st := range resp.Shards {
		if st.Status != "ok" {
			t.Fatalf("shard %d status %q: %s", st.Shard, st.Status, st.Error)
		}
	}
	for qi := range queries {
		if !resp.Results[qi].Completed {
			t.Fatalf("query %d incomplete", qi)
		}
		if len(resp.Results[qi].Hits) != len(mono.Results[qi].Hits) {
			t.Fatalf("query %d: %d hits on the wire, monolithic %d", qi, len(resp.Results[qi].Hits), len(mono.Results[qi].Hits))
		}
		for j, h := range mono.Results[qi].Hits {
			if resp.Results[qi].Hits[j] != server.HitFromBlast(h) {
				t.Fatalf("query %d hit %d differs:\n got  %+v\n want %+v", qi, j, resp.Results[qi].Hits[j], server.HitFromBlast(h))
			}
		}
	}
}

// TestFrontendPartialShedForwardsRetryAfter pins the scatter-path
// backpressure contract: one shed shard means 200 with honest incomplete
// queries and the shed's Retry-After forwarded — not a silent zero-hit
// merge, not a full refusal.
func TestFrontendPartialShedForwardsRetryAfter(t *testing.T) {
	_, shards, queries := fixture(t)
	busy := &stubWorker{name: "busy", search: func(context.Context, []string, int, int) (*blast.ShardResult, error) {
		return nil, &BusyError{Worker: "busy", RetryAfter: 7 * 1e9}
	}}
	rt, err := New([][]Worker{{delegate("s0", shards[0])}, {busy}, {delegate("s2", shards[2])}},
		Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	fe := NewFrontend(rt, FrontendConfig{Registry: obs.NewRegistry()})
	rec := postSearch(t, fe.Handler(), searchBody(queries))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want the shed's hint 7", got)
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Incomplete {
		t.Fatal("response not marked incomplete despite a shed shard")
	}
	if resp.Shards[1].Status != "shed" {
		t.Fatalf("shard 1 status %q, want shed", resp.Shards[1].Status)
	}
	for qi := range resp.Results {
		if resp.Results[qi].Completed || len(resp.Results[qi].Hits) != 0 {
			t.Fatalf("query %d pretends completeness under a shed shard: %+v", qi, resp.Results[qi])
		}
		if resp.Results[qi].Error == "" {
			t.Fatalf("query %d incomplete without an error", qi)
		}
	}
}

// TestFrontendAllShed429: every shard shedding is a 429 with the aggregated
// Retry-After, mirroring the monolithic daemon's queue-full shed.
func TestFrontendAllShed429(t *testing.T) {
	_, _, queries := fixture(t)
	mk := func(name string, after time.Duration) Worker {
		return &stubWorker{name: name, search: func(context.Context, []string, int, int) (*blast.ShardResult, error) {
			return nil, &BusyError{Worker: name, RetryAfter: after}
		}}
	}
	rt, err := New([][]Worker{{mk("a", 2e9)}, {mk("b", 5e9)}}, Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	fe := NewFrontend(rt, FrontendConfig{Registry: obs.NewRegistry()})
	rec := postSearch(t, fe.Handler(), searchBody(queries))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "5" {
		t.Fatalf("Retry-After %q, want the aggregated hint 5", got)
	}
}

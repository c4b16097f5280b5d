package reqtrace

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestReadRecordsProjectsTraces(t *testing.T) {
	// tree is one finished request as the serving edge writes it: an edge
	// root with its attributes, the spans under it, and an outcome. A
	// record projects the root's attributes only; the spans must not leak
	// into it.
	type tree struct {
		rid     string
		start   int64
		nanos   int64
		outcome string
		attrs   map[string]string
		spans   func(root *Span)
	}
	prSearch := func(root *Span) {
		search := root.Child("search", 2010)
		search.End(600)
		scatter := search.Child("scatter", 2010)
		scatter.End(500)
		for s, nanos := range []int64{400, 450, 500} {
			shard := scatter.Child("shard"+strconv.Itoa(s), 2010)
			shard.End(nanos)
			AttachQuerySpan(shard, 2010, "0", []obs.Span{{Stage: "gapped", Nanos: nanos / 2}})
		}
		search.StaticChild("merge", 2510, 30)
	}
	shed := func(rid string, start int64) tree {
		return tree{rid: rid, start: start, nanos: 5, outcome: OutcomeShed,
			attrs: map[string]string{AttrStatus: "429", AttrQueryLens: "10", AttrDeadlineMS: "1000"}}
	}
	shedRec := func(rid string, start int64) *Record {
		return &Record{RequestID: rid, ArrivalUnixNS: start, QueryLens: []int{10}, DeadlineMS: 1000,
			Outcome: OutcomeShed, Status: 429}
	}

	for _, tc := range []struct {
		name   string
		daemon string
		trees  []tree
		want   []*Record
	}{
		{
			name: "mublastpd search, degraded", daemon: "mublastpd",
			trees: []tree{{rid: "pd", start: 1000, nanos: 900, outcome: OutcomeOK,
				attrs: map[string]string{AttrStatus: "200", AttrQueryLens: "120,80", AttrDeadlineMS: "7500", AttrDegraded: "true"}}},
			want: []*Record{{RequestID: "pd", ArrivalUnixNS: 1000, QueryLens: []int{120, 80}, DeadlineMS: 7500,
				Outcome: OutcomeOK, Status: 200, Degraded: true}},
		},
		{
			name: "mublastpr search over three shards", daemon: "mublastpr",
			trees: []tree{{rid: "pr", start: 2000, nanos: 700, outcome: OutcomeOK, spans: prSearch,
				attrs: map[string]string{AttrStatus: "200", AttrQueryLens: "50", AttrDeadlineMS: "2000"}}},
			want: []*Record{{RequestID: "pr", ArrivalUnixNS: 2000, QueryLens: []int{50}, DeadlineMS: 2000,
				Outcome: OutcomeOK, Status: 200}},
		},
		{
			name: "rejected, root only", daemon: "mublastpd",
			trees: []tree{{rid: "bad", start: 3000, nanos: 20, outcome: OutcomeRejected,
				attrs: map[string]string{AttrStatus: "400"}}},
			want: []*Record{{RequestID: "bad", ArrivalUnixNS: 3000, Outcome: OutcomeRejected, Status: 400}},
		},
		{
			// Daemons write trees as requests finish; records come back in
			// arrival order.
			name: "completion order", daemon: "mublastpd",
			trees: []tree{shed("c", 300), shed("a", 100), shed("b", 200)},
			want:  []*Record{shedRec("a", 100), shedRec("b", 200), shedRec("c", 300)},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			tw := NewTracer(tc.daemon, &buf)
			for _, tr := range tc.trees {
				trace := tw.Begin(Context{RequestID: tr.rid}, "edge", tr.start)
				root := trace.RootSpan()
				for k, v := range tr.attrs {
					root.SetAttr(k, v)
				}
				if tr.spans != nil {
					tr.spans(root)
				}
				root.End(tr.nanos)
				if err := tw.Finish(trace, tr.outcome); err != nil {
					t.Fatal(err)
				}
			}
			if err := tw.Flush(); err != nil {
				t.Fatal(err)
			}
			got, err := ReadRecords(&buf)
			if err != nil {
				t.Fatalf("ReadRecords: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				for i := range got {
					t.Logf("got[%d]  = %+v", i, *got[i])
				}
				for i := range tc.want {
					t.Logf("want[%d] = %+v", i, *tc.want[i])
				}
				t.Fatal("projection mismatch")
			}
		})
	}

	for _, line := range []string{
		`{"request_id":"x"}`,
		`{"request_id":"x","root":{"name":"edge","attrs":{"query_lens":"1,x"}}}`,
		`{"request_id":"x","root":{"name":"edge","attrs":{"status":"ok"}}}`,
	} {
		if _, err := ReadRecords(strings.NewReader(line)); err == nil {
			t.Errorf("ReadRecords(%s) projected a malformed tree", line)
		}
	}
}

func TestReplayAgainstLiveServer(t *testing.T) {
	type seen struct {
		lens      []int
		timeoutMS int64
		at        time.Time
	}
	var mu sync.Mutex
	var got []seen
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Queries []struct {
				Name     string `json:"name"`
				Residues string `json:"residues"`
			} `json:"queries"`
			TimeoutMS int64 `json:"timeout_ms"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s := seen{timeoutMS: req.TimeoutMS, at: time.Now()}
		for _, q := range req.Queries {
			s.lens = append(s.lens, len(q.Residues))
		}
		mu.Lock()
		got = append(got, s)
		n := len(got)
		mu.Unlock()
		w.Header().Set(HeaderRequestID, "srv-id")
		if n == 2 {
			// Second-arriving request is shed, to exercise classification.
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	gap := 60 * time.Millisecond
	recs := []*Record{
		{ArrivalUnixNS: 0, QueryLens: []int{40, 25}, DeadlineMS: 1000},
		{ArrivalUnixNS: gap.Nanoseconds(), QueryLens: []int{10}, DeadlineMS: 2000},
	}
	res, err := Replay(context.Background(), ReplayConfig{Target: srv.URL, Seed: 2}, recs)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.Sent != 2 {
		t.Fatalf("sent %d, want 2", res.Sent)
	}
	if res.ByOutcome[OutcomeOK] != 1 || res.ByOutcome[OutcomeShed] != 1 {
		t.Fatalf("outcomes = %v, want 1 ok + 1 shed", res.ByOutcome)
	}
	for _, o := range res.Outcomes {
		if o.RequestID != "srv-id" {
			t.Fatalf("request id not captured: %+v", o)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("server saw %d requests, want 2", len(got))
	}
	if len(got[0].lens) != 2 || got[0].lens[0] != 40 || got[0].lens[1] != 25 {
		t.Fatalf("first request lens = %v, want [40 25]", got[0].lens)
	}
	if got[0].timeoutMS != 1000 || got[1].timeoutMS != 2000 {
		t.Fatalf("deadlines not replayed: %d %d", got[0].timeoutMS, got[1].timeoutMS)
	}
	// Inter-arrival pacing: the second request must not fire before the
	// recorded gap (minus nothing — the pacer only ever waits).
	if d := got[1].at.Sub(got[0].at); d < gap/2 {
		t.Fatalf("recorded gap %v collapsed to %v on replay", gap, d)
	}
}

// TestReplayReadsWholeBody pins that a replayed request ends at its body's
// last byte: latency runs to it, and a body torn short of its declared
// length is an error whatever the status said.
func TestReplayReadsWholeBody(t *testing.T) {
	const slow = 100 * time.Millisecond
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		outcome string
		minLat  time.Duration
	}{
		{"slow body", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			time.Sleep(slow)
			w.Write([]byte(`{}`))
		}, OutcomeOK, slow},
		{"torn body", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "100")
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("0123456789"))
		}, OutcomeError, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			res, err := Replay(context.Background(), ReplayConfig{Target: srv.URL}, []*Record{{QueryLens: []int{5}}})
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			o := res.Outcomes[0]
			if o.Outcome != tc.outcome || (o.Err != nil) != (tc.outcome == OutcomeError) ||
				o.Status != http.StatusOK || o.LatencyNS < tc.minLat.Nanoseconds() {
				t.Fatalf("outcome %+v, want %s with latency >= %v", o, tc.outcome, tc.minLat)
			}
		})
	}
}

func TestReplaySpeedScalesGaps(t *testing.T) {
	var mu sync.Mutex
	var times []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		times = append(times, time.Now())
		mu.Unlock()
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	recs := []*Record{
		{ArrivalUnixNS: 0, QueryLens: []int{5}},
		{ArrivalUnixNS: (400 * time.Millisecond).Nanoseconds(), QueryLens: []int{5}},
	}
	start := time.Now()
	if _, err := Replay(context.Background(), ReplayConfig{Target: srv.URL, Speed: 8}, recs); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if wall := time.Since(start); wall > 300*time.Millisecond {
		t.Fatalf("8x replay of a 400ms workload took %v", wall)
	}
}

func TestQuantileNanos(t *testing.T) {
	v := []int64{50, 10, 40, 20, 30}
	if got := quantileNanos(v, 0.5); got != 30 {
		t.Fatalf("p50 = %d, want 30", got)
	}
	if got := quantileNanos(v, 1); got != 50 {
		t.Fatalf("p100 = %d, want 50", got)
	}
	if got := quantileNanos(v, 0); got != 10 {
		t.Fatalf("p0 = %d, want 10", got)
	}
	if got := quantileNanos(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}
	// Ranks where ceil(q*n)-1 and round-half-up(q*n)-1 disagree (the
	// fractional part of q*n is under a half): the rank is ceil(q*n)-1.
	for _, tc := range []struct {
		n    int
		q    float64
		rank int64
	}{{6, 0.55, 3}, {112, 0.95, 106}} {
		v := make([]int64, tc.n)
		for i := range v {
			v[i] = int64(tc.n - 1 - i) // descending: the helper must sort
		}
		if got := quantileNanos(v, tc.q); got != tc.rank {
			t.Fatalf("n=%d q=%v: got rank %d, want %d", tc.n, tc.q, got, tc.rank)
		}
	}
	// The input must not be reordered in place.
	if v[0] != 50 {
		t.Fatalf("QuantileNanos mutated its input: %v", v)
	}
}

package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/blast"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/reqtrace"
	"repro/internal/server"
)

// startShardDaemons serves each fixture shard from a real server.Server (the
// way a mublastpd fleet would) and returns one RemoteWorker per shard. Shard
// s traces its requests to traces[s] when one is given.
func startShardDaemons(t *testing.T, shards []*blast.Database, traces ...*syncBuffer) []*RemoteWorker {
	t.Helper()
	p := blast.DefaultParams()
	p.BlockResidues = 16384
	p.Threads = 1
	workers := make([]*RemoteWorker, len(shards))
	for s, sd := range shards {
		cfg := server.Config{Registry: obs.NewRegistry()}
		if s < len(traces) {
			cfg.Tracer = reqtrace.NewTracer("mublastpd", traces[s])
		}
		srv := server.New(blast.NewSession(sd, p), p, cfg)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		workers[s] = NewRemoteWorker("s"+strconv.Itoa(s), "http://"+addr, RemoteOptions{})
	}
	return workers
}

// TestRemoteWorkersMatchMonolithic drives the full remote path: handshake
// (VerifyRemoteTopology over /shard/info), scatter over HTTP /shard/search,
// wire decode, merge — byte-identical to the monolithic search.
func TestRemoteWorkersMatchMonolithic(t *testing.T) {
	db, shards, queries := fixture(t)
	mono, err := db.SearchBatchCtx(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	remote := startShardDaemons(t, shards)

	byShard := make([][]*RemoteWorker, len(remote))
	workers := make([][]Worker, len(remote))
	for s, w := range remote {
		byShard[s] = []*RemoteWorker{w}
		workers[s] = []Worker{w}
	}
	fp, globalSeqs, err := VerifyRemoteTopology(context.Background(), byShard)
	if err != nil {
		t.Fatalf("handshake over a coherent fleet: %v", err)
	}
	if fp == nil || int(globalSeqs) != db.NumSequences() {
		t.Fatalf("handshake: fingerprint %v, %d global sequences, want %d", fp, globalSeqs, db.NumSequences())
	}

	rt, err := New(workers, Options{Registry: obs.NewRegistry(),
		Resilience: ResilienceConfig{ProbeInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	br, rep, err := rt.Search(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sheds() != 0 || rep.Failed() != 0 {
		t.Fatalf("healthy remote fleet degraded: %+v", rep.Shards)
	}
	for qi := range queries {
		if !br.Completed[qi] {
			t.Fatalf("query %d incomplete over a healthy remote fleet", qi)
		}
		if g, w := br.Results[qi].Tabular("q"), mono.Results[qi].Tabular("q"); g != w {
			t.Fatalf("query %d: remote scatter differs from monolithic:\n got:\n%s\n want:\n%s", qi, g, w)
		}
	}
	for s, w := range remote {
		if w.Generation() == 0 {
			t.Fatalf("shard %d worker never learned the daemon's generation", s)
		}
	}
}

// TestRemoteWorkerDecodesBusy: an upstream 429 with Retry-After becomes a
// BusyError — the shed/failure distinction survives the network hop.
func TestRemoteWorkerDecodesBusy(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"queue full"}`)
	}))
	defer ts.Close()
	w := NewRemoteWorker("busy", ts.URL, RemoteOptions{})
	_, err := w.Search(context.Background(), []string{"MKT"}, 0, 2)
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("err %v, want BusyError", err)
	}
	if busy.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter %v, want 7s from the header", busy.RetryAfter)
	}
}

// TestRemoteWorkerReusesConnections: concurrent searches against one replica
// ride kept-alive connections, one per caller, instead of dialling per
// request (http.DefaultTransport keeps two idle connections per host, so of
// the 8 that a round of 8 callers hands back it closed six, and the next
// round dialled them again). The replica answers a round only when all 8 of
// its requests have arrived, so 8 connections are in use at once, and a round
// starts only when the transport has taken all 8 back, so none is dialled
// for want of one still on its way to the pool.
func TestRemoteWorkerReusesConnections(t *testing.T) {
	const callers, rounds = 8, 50
	var opened, arrived atomic.Int64
	var gates [rounds]chan struct{}
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := arrived.Add(1)
		gate := gates[(n-1)/callers]
		if n%callers == 0 {
			close(gate)
		}
		<-gate
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"queue full"}`)
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	w := NewRemoteWorker("pooled", ts.URL, RemoteOptions{})
	for round := 0; round < rounds && !t.Failed(); round++ {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				returned := make(chan struct{}, 1)
				ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
					PutIdleConn: func(error) { returned <- struct{}{} },
				})
				var busy *BusyError
				if _, err := w.Search(ctx, []string{"MKT"}, 0, 2); !errors.As(err, &busy) {
					t.Errorf("err %v, want BusyError", err)
					return
				}
				select {
				case <-returned:
				case <-time.After(10 * time.Second):
					t.Error("the transport never took the connection back")
				}
			}()
		}
		wg.Wait()
	}
	if n := opened.Load(); n > callers {
		t.Fatalf("%d connections opened for %d searches by %d callers, want at most %d", n, callers*rounds, callers, callers)
	}
}

// TestRemoteWorkerSurfacesServerError: a non-shed upstream failure keeps the
// daemon's message for diagnostics and is not a BusyError.
func TestRemoteWorkerSurfacesServerError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"error":"disk on fire"}`)
	}))
	defer ts.Close()
	w := NewRemoteWorker("boom", ts.URL, RemoteOptions{})
	_, err := w.Search(context.Background(), []string{"MKT"}, 0, 2)
	var busy *BusyError
	if errors.As(err, &busy) {
		t.Fatal("a 500 must not decode as backpressure")
	}
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("err %v, want the daemon's message preserved", err)
	}
}

// TestRemoteWorkerDeadlineBudget: the propagated shard deadline is the
// context's remaining budget minus networkMargin, floored at minTimeout — the
// daemon gives up early enough for its partial answer to travel back.
func TestRemoteWorkerDeadlineBudget(t *testing.T) {
	var got atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.ShardSearchRequest
		json.NewDecoder(r.Body).Decode(&req)
		got.Store(req.TimeoutMS)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	w := NewRemoteWorker("w", ts.URL, RemoteOptions{})

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	w.Search(ctx, []string{"MKT"}, 0, 2)
	cancel()
	if ms := got.Load(); ms < 750 || ms > 850 {
		t.Fatalf("propagated budget %dms from a 1s deadline with a 150ms margin, want ~850ms", ms)
	}

	// A deadline tighter than the margin still sends the floor, not zero.
	ctx, cancel = context.WithTimeout(context.Background(), 100*time.Millisecond)
	w.Search(ctx, []string{"MKT"}, 0, 2)
	cancel()
	if ms := got.Load(); ms != 50 {
		t.Fatalf("propagated budget %dms under a too-tight deadline, want the 50ms floor", ms)
	}
}

// TestRemoteWorkerHealthCheck: /readyz 200 is healthy, anything else is the
// prober's ejection signal.
func TestRemoteWorkerHealthCheck(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer ts.Close()
	w := NewRemoteWorker("w", ts.URL, RemoteOptions{})
	if err := w.HealthCheck(context.Background()); err != nil {
		t.Fatalf("healthy daemon: %v", err)
	}
	ready.Store(false)
	if err := w.HealthCheck(context.Background()); err == nil {
		t.Fatal("draining daemon passed the health check")
	}
	ts.Close()
	if err := w.HealthCheck(context.Background()); err == nil {
		t.Fatal("dead daemon passed the health check")
	}
}

// TestProbeTakesTheRPCPath: a probe is an RPC like a search, so a dropped
// call (router.rpc=error) fails HealthCheck with the injected error, and the
// router's prober takes the replica out of rotation for it.
func TestProbeTakesTheRPCPath(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer ts.Close()
	w := NewRemoteWorker("w", ts.URL, RemoteOptions{})
	if err := faultinject.Enable("router.rpc=error", 1); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	if err := w.HealthCheck(context.Background()); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("HealthCheck with router.rpc armed = %v, want the injected error", err)
	}

	rt, err := New([][]Worker{{w}}, Options{Registry: obs.NewRegistry(), Resilience: ResilienceConfig{
		ProbeInterval: 2 * time.Millisecond, ProbeTimeout: 500 * time.Millisecond,
		ReadmitBackoff: time.Second, ReadmitBackoffMax: time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	deadline := time.Now().Add(2 * time.Second)
	for st := rt.ReplicaStates()[0][0]; !st.Ejected || st.Reason != "probe"; st = rt.ReplicaStates()[0][0] {
		if time.Now().After(deadline) {
			t.Fatalf("replica state %+v with every probe dropped; want ejected for reason \"probe\"", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProbeHoldsReplicaToHandshakeRules: a replica that restarts on another
// build behind the router — here its /shard/info flips rules_version — still
// answers /readyz, but the prober ejects it, keeps it out while it reports
// the other rules, and readmits it when it reports the handshake's again.
func TestProbeHoldsReplicaToHandshakeRules(t *testing.T) {
	var rules atomic.Int64
	rules.Store(blast.RulesVersion)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
		case "/shard/info":
			json.NewEncoder(w).Encode(server.ShardInfoResponse{
				Fingerprint:  blast.Fingerprint{Matrix: "BLOSUM62", WordSize: 3, NeighborThreshold: 11},
				RulesVersion: int(rules.Load()),
			})
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	w := NewRemoteWorker("w", ts.URL, RemoteOptions{})
	if _, err := w.Info(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfg := ResilienceConfig{ReadmitBackoff: 100 * time.Millisecond, ReadmitBackoffMax: 100 * time.Millisecond}
	r, met := newTestReplica(w, cfg)
	ctx, now := context.Background(), time.Now()

	r.probe(ctx, now)
	if !r.eligible(time.Now()) {
		t.Fatal("replica on the handshake's rules ejected")
	}
	rules.Store(blast.RulesVersion - 1)
	r.probe(ctx, now)
	if r.eligible(time.Now()) || met.Ejections.Value() != 1 {
		t.Fatalf("replica on other rules: healthy %v, ejections %d; want ejected once", r.eligible(time.Now()), met.Ejections.Value())
	}
	r.probe(ctx, now.Add(time.Second))
	if r.eligible(time.Now()) {
		t.Fatal("replica on other rules readmitted")
	}
	rules.Store(blast.RulesVersion)
	r.probe(ctx, now.Add(2*time.Second))
	if !r.eligible(time.Now()) || met.Readmissions.Value() != 1 {
		t.Fatalf("replica back on the handshake's rules: healthy %v, readmissions %d; want readmitted once", r.eligible(time.Now()), met.Readmissions.Value())
	}
}

// fakeInfoServer serves a scripted /shard/info for topology tests.
func fakeInfoServer(t *testing.T, info server.ShardInfoResponse) *RemoteWorker {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(info)
	}))
	t.Cleanup(ts.Close)
	return NewRemoteWorker("fake", ts.URL, RemoteOptions{})
}

// TestVerifyRemoteTopologyRejectsIncoherence: the handshake refuses fleets
// whose replicas disagree — on build fingerprint, on the global search space,
// on the E-value cutoff or hit cap, on a shard slice — or whose slices do not
// tile the logical database.
func TestVerifyRemoteTopologyRejectsIncoherence(t *testing.T) {
	base := server.ShardInfoResponse{
		Fingerprint:     blast.Fingerprint{Matrix: "BLOSUM62", WordSize: 3, NeighborThreshold: 11},
		GlobalSequences: 4, GlobalResidues: 100,
		EValueCutoff: 10, MaxResults: 250,
	}
	mk := func(mut func(*server.ShardInfoResponse)) server.ShardInfoResponse {
		in := base
		mut(&in)
		return in
	}
	shard := func(seqs int, res int64) func(*server.ShardInfoResponse) {
		return func(in *server.ShardInfoResponse) { in.Sequences, in.TotalResidues = seqs, res }
	}

	// Coherent 2-shard fleet (round-robin split of 4 sequences) passes,
	// including store-backed replicas sitting at the same manifest commit.
	stored := func(in *server.ShardInfoResponse) {
		in.Sequences, in.TotalResidues = 2, 60
		in.ManifestSeq, in.ManifestHash, in.Deltas = 3, "aabbccdd", 2
	}
	ok := [][]*RemoteWorker{
		{fakeInfoServer(t, mk(stored)), fakeInfoServer(t, mk(stored))},
		{fakeInfoServer(t, mk(shard(2, 40)))},
	}
	if _, n, err := VerifyRemoteTopology(context.Background(), ok); err != nil || n != 4 {
		t.Fatalf("coherent fleet rejected: %v (global %d)", err, n)
	}

	for _, tc := range []struct {
		name  string
		fleet [][]*RemoteWorker
		want  string
	}{
		{"fingerprint drift", [][]*RemoteWorker{
			{fakeInfoServer(t, mk(shard(2, 60)))},
			{fakeInfoServer(t, mk(func(in *server.ShardInfoResponse) {
				in.Sequences, in.TotalResidues = 2, 40
				in.Fingerprint.WordSize = 4
			}))},
		}, "fingerprint"},
		{"global space disagreement", [][]*RemoteWorker{
			{fakeInfoServer(t, mk(shard(2, 60)))},
			{fakeInfoServer(t, mk(func(in *server.ShardInfoResponse) {
				in.Sequences, in.TotalResidues = 2, 40
				in.GlobalSequences = 5
			}))},
		}, "global space"},
		// Shard daemons started with another -max-hits (or -evalue) merge
		// into a reply no monolithic search gives.
		{"search settings disagreement", [][]*RemoteWorker{
			{fakeInfoServer(t, mk(shard(2, 60)))},
			{fakeInfoServer(t, mk(func(in *server.ShardInfoResponse) {
				in.Sequences, in.TotalResidues = 2, 40
				in.MaxResults = 100
			}))},
		}, "100 hits per query"},
		{"replica slice disagreement", [][]*RemoteWorker{
			{fakeInfoServer(t, mk(shard(2, 60))), fakeInfoServer(t, mk(shard(1, 60)))},
			{fakeInfoServer(t, mk(shard(2, 40)))},
		}, "shard peer"},
		{"slice does not tile", [][]*RemoteWorker{
			{fakeInfoServer(t, mk(shard(3, 60)))},
			{fakeInfoServer(t, mk(shard(1, 40)))},
		}, "round-robin"},
		// Equal sequence totals do not prove equal sequences once deltas are
		// involved: replicas of one shard at different manifest commits are
		// refused until delta propagation catches the laggard up.
		{"mixed manifest across replicas", [][]*RemoteWorker{
			{
				fakeInfoServer(t, mk(func(in *server.ShardInfoResponse) {
					in.Sequences, in.TotalResidues = 2, 60
					in.ManifestSeq, in.ManifestHash, in.Deltas = 3, "aabbccdd", 2
				})),
				fakeInfoServer(t, mk(func(in *server.ShardInfoResponse) {
					in.Sequences, in.TotalResidues = 2, 60
					in.ManifestSeq, in.ManifestHash, in.Deltas = 2, "11223344", 1
				})),
			},
			{fakeInfoServer(t, mk(shard(2, 40)))},
		}, "mixed-manifest"},
	} {
		_, _, err := VerifyRemoteTopology(context.Background(), tc.fleet)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestRollingReloadOneRequestPerReplica: over the wire, a rolling reload is
// one POST /reload per replica — the daemon's open is the only check a
// candidate gets — and each worker takes the generation the daemon answers.
func TestRollingReloadOneRequestPerReplica(t *testing.T) {
	var fleet [][]Worker
	var counts []*atomic.Int64
	for s := 0; s < 2; s++ {
		var reps []Worker
		for rep := 0; rep < 2; rep++ {
			n := new(atomic.Int64)
			counts = append(counts, n)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var req server.ReloadRequest
				if r.URL.Path != "/reload" || json.NewDecoder(r.Body).Decode(&req) != nil || req.Path != "shard"+strconv.Itoa(s) {
					http.Error(w, "unexpected request", http.StatusBadRequest)
					return
				}
				n.Add(1)
				json.NewEncoder(w).Encode(server.ReloadResponse{Generation: 2})
			}))
			t.Cleanup(ts.Close)
			reps = append(reps, NewRemoteWorker(fmt.Sprintf("s%d/r%d", s, rep), ts.URL, RemoteOptions{}))
		}
		fleet = append(fleet, reps)
	}
	rt, err := New(fleet, Options{Registry: obs.NewRegistry(), Resilience: ResilienceConfig{ProbeInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp := rt.RollingReload(context.Background(), []string{"shard0", "shard1"}, false); !resp.OK {
		t.Fatalf("roll failed: %+v", resp.Replicas)
	}
	for i, n := range counts {
		if got := n.Load(); got != 1 {
			t.Errorf("replica %d got %d /reload requests, want 1", i, got)
		}
	}
	for _, reps := range fleet {
		for _, w := range reps {
			if g := w.(*RemoteWorker).Generation(); g != 2 {
				t.Errorf("%s generation %d after the roll, want 2", w.Name(), g)
			}
		}
	}
}

// TestVerifyRemoteTopologyRefusesMixedRules: shard daemons report the
// rules their build searches by, and the handshake refuses a fleet in which
// one replica reports other rules while agreeing on every other fact.
func TestVerifyRemoteTopologyRefusesMixedRules(t *testing.T) {
	_, shards, _ := fixture(t)
	remote := startShardDaemons(t, shards)
	fleet := make([][]*RemoteWorker, len(remote))
	for s, w := range remote {
		fleet[s] = []*RemoteWorker{w}
	}
	if _, _, err := VerifyRemoteTopology(context.Background(), fleet); err != nil {
		t.Fatalf("one-build fleet refused: %v", err)
	}
	info, err := remote[0].Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.RulesVersion != blast.RulesVersion {
		t.Fatalf("daemon reports rules version %d, the build's is %d", info.RulesVersion, blast.RulesVersion)
	}
	other := *info
	other.RulesVersion = blast.RulesVersion - 1
	fleet[0] = append(fleet[0], fakeInfoServer(t, other))
	_, _, err = VerifyRemoteTopology(context.Background(), fleet)
	if !errors.Is(err, blast.ErrRulesMismatch) {
		t.Fatalf("mixed-rules fleet: err %v, want blast.ErrRulesMismatch", err)
	}
}

// TestRemoteProbeEjectsDeadDaemon: the router's live prober ejects a worker
// whose daemon died and keeps scatters complete from the surviving replica —
// the in-process version of the kill-a-replica smoke test.
func TestRemoteProbeEjectsDeadDaemon(t *testing.T) {
	_, shards, queries := fixture(t)
	p := blast.DefaultParams()
	p.BlockResidues = 16384
	p.Threads = 1

	mkDaemon := func(sd *blast.Database) (*server.Server, *RemoteWorker) {
		srv := server.New(blast.NewSession(sd, p), p, server.Config{Registry: obs.NewRegistry()})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return srv, NewRemoteWorker("r@"+addr, "http://"+addr, RemoteOptions{})
	}
	victimSrv, victim := mkDaemon(shards[0])
	survivorSrv, survivor := mkDaemon(shards[0])
	defer survivorSrv.Close()

	rt, err := New([][]Worker{{victim, survivor}}, Options{Registry: obs.NewRegistry(),
		Resilience: ResilienceConfig{
			// A tight interval for test convergence, but a real-HTTP probe
			// budget: the default timeout inherits the interval, far too
			// short for a loopback round-trip under the race detector.
			ProbeInterval: 2 * time.Millisecond, ProbeTimeout: 500 * time.Millisecond,
			ReadmitBackoff: 10 * time.Millisecond, ReadmitBackoffMax: 40 * time.Millisecond,
			RetryBudget: 2, RetryBackoff: time.Millisecond,
		}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()

	victimSrv.Close() // the "SIGKILL"
	deadline := time.Now().Add(2 * time.Second)
	for !rt.ReplicaStates()[0][0].Ejected {
		if time.Now().After(deadline) {
			t.Fatal("dead daemon never ejected")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		br, rep, err := rt.Search(context.Background(), queries[:1])
		if err != nil {
			t.Fatalf("search %d after replica death: %v (shard 0: %+v)", i, err, rep.Shards[0])
		}
		if rep.Failed() != 0 || !br.Completed[0] {
			t.Fatalf("search %d degraded despite a live survivor: %+v", i, rep.Shards)
		}
	}
}

// TestChaosRemoteTransport hammers a remote 3x2 fleet through the resilience
// layer while the transport fault sites (router.rpc dropping calls,
// router.rpcbody tearing response bodies) fire randomly. Each seed runs twice,
// once with the prober off (request strikes alone move the replica gate) and
// once with it probing every few milliseconds (both signals feed it).
// Invariants, whatever the schedule: every query flagged completed is
// byte-identical to the monolithic reference (a torn body or dropped RPC
// degrades honestly, never corrupts a merge), per-request attempts stay
// within fanout + retry budget, the fleet serves complete results again once
// the faults clear, and no goroutines leak. `make chaos` runs this under
// -race; CHAOS_SEED pins a schedule, CHAOS_ROUNDS widens the sweep.
func TestChaosRemoteTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	db, shards, queries := fixture(t)
	mono, err := db.SearchBatchCtx(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(queries))
	for qi := range queries {
		want[qi] = mono.Results[qi].Tabular("q")
	}

	rounds := 4
	if s := os.Getenv("CHAOS_ROUNDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad CHAOS_ROUNDS %q: %v", s, err)
		}
		rounds = n
	}
	seeds := make([]int64, rounds)
	for i := range seeds {
		seeds[i] = int64(7100 + 13*i)
	}
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seeds = []int64{n}
	}

	const budget = 2
	base := runtime.NumGoroutine()
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, probe := range []time.Duration{-1, 3 * time.Millisecond} {
				name := "prober=off"
				if probe > 0 {
					name = "prober=on"
				}
				t.Run(name, func(t *testing.T) {
					chaosRemoteRound(t, seed, shards, queries, want, ResilienceConfig{
						ProbeInterval:  probe,
						ReadmitBackoff: 20 * time.Millisecond, ReadmitBackoffMax: 40 * time.Millisecond,
						RetryBudget: budget, RetryBackoff: time.Millisecond,
					})
				})
			}
		})
	}
	waitForRouterGoroutines(t, base)
}

// chaosRemoteRound runs one TestChaosRemoteTransport schedule against a
// fresh fleet under res.
func chaosRemoteRound(t *testing.T, seed int64, shards []*blast.Database, queries, want []string, res ResilienceConfig) {
	defer func() {
		if t.Failed() {
			t.Logf("replay with: CHAOS_SEED=%d go test -race -run TestChaosRemoteTransport ./internal/router", seed)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	spec := remoteChaosSchedule(rng)
	t.Logf("schedule %q", spec)
	if err := faultinject.Enable(spec, uint64(seed)); err != nil {
		t.Fatalf("enable %q: %v", spec, err)
	}
	defer faultinject.Disable()

	// The fixture's full 3-shard split, 2 replicas each, every replica a
	// real HTTP daemon.
	workers := make([][]Worker, len(shards))
	for s := range shards {
		reps := startShardDaemons(t, []*blast.Database{shards[s], shards[s]})
		// startShardDaemons maps slice index to the shard argument at search
		// time via the router, so both replicas serve shard s.
		workers[s] = []Worker{reps[0], reps[1]}
	}
	rt, err := New(workers, Options{Registry: obs.NewRegistry(), Resilience: res})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				br, rep, err := rt.Search(ctx, queries)
				cancel()
				if err != nil {
					if errors.Is(err, ErrAllShardsUnavailable) {
						continue // honest full refusal under faults
					}
					errs <- fmt.Errorf("search: %v", err)
					continue
				}
				total := 0
				for _, st := range rep.Shards {
					total += st.Attempts
				}
				if total > len(rep.Shards)+res.RetryBudget {
					errs <- fmt.Errorf("attempts %d exceed fanout %d + budget %d", total, len(rep.Shards), res.RetryBudget)
				}
				for qi := range queries {
					if !br.Completed[qi] {
						continue // honest incompleteness under faults
					}
					if got := br.Results[qi].Tabular("q"); got != want[qi] {
						errs <- fmt.Errorf("query %d completed but differs from the fault-free reference:\n got:\n%s\n want:\n%s", qi, got, want[qi])
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Faults off, the same fleet must serve complete identical results again
	// (replicas the faults took out return once their backoff runs out).
	faultinject.Disable()
	recovered := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		br, rep, err := rt.Search(context.Background(), queries)
		if err == nil && rep.Sheds() == 0 && rep.Failed() == 0 {
			for qi := range queries {
				if got := br.Results[qi].Tabular("q"); got != want[qi] {
					t.Fatalf("post-fault query %d differs from reference", qi)
				}
			}
			recovered = true
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !recovered {
		t.Error("fleet never recovered to complete results after faults cleared")
	}
}

// remoteChaosSchedule draws one to two clauses over the transport sites.
func remoteChaosSchedule(rng *rand.Rand) string {
	clauses := []string{
		fmt.Sprintf("router.rpc=error@0.%02d", 10+rng.Intn(30)),
		fmt.Sprintf("router.rpcbody=shortread:%d@0.%02d", rng.Intn(64), 10+rng.Intn(30)),
		"router.rpc=delay:2ms",
	}
	spec := clauses[rng.Intn(len(clauses))]
	if rng.Intn(2) == 0 {
		other := clauses[rng.Intn(len(clauses))]
		if !strings.HasPrefix(other, spec[:strings.Index(spec, "=")]) {
			spec += "," + other
		}
	}
	return spec
}

// waitForRouterGoroutines asserts the goroutine count returns to baseline —
// retries and probers must not leak goroutines across rounds.
func waitForRouterGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

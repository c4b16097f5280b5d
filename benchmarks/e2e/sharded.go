package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/blast"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/seqgen"
	"repro/internal/server"
)

const (
	shardedDBResidues = 710_000 // a uniprot-like 2000 sequences
	shardedShards     = 2
	shardedRequests   = 512 // distinct single-query requests, cycled
	serveQueryLen     = 128
	openRate          = 80.0 // requests per second of the ungated open loop
)

// rpcObs is one Worker.Search call as the timing decorator saw it.
type rpcObs struct {
	shard      int
	t0, t1     time.Time
	engineNS   int64      // the shard's scheduler wall, from the result
	stageSpans []obs.Span // the shard's stage times for the query, from the result
}

// rpcLog collects the decorator's observations per request, keyed by the
// query text: requests in flight at one time always carry different queries.
type rpcLog struct {
	mu    sync.Mutex
	index map[string]int // query residues -> request index
	byReq map[int][]rpcObs
}

// take returns and forgets what was observed for request idx.
func (l *rpcLog) take(idx int) []rpcObs {
	l.mu.Lock()
	defer l.mu.Unlock()
	o := l.byReq[idx]
	delete(l.byReq, idx)
	return o
}

// timedWorker is the decorator around router.Worker: it times Search and
// passes everything through unchanged.
type timedWorker struct {
	router.Worker
	log *rpcLog
}

func (t *timedWorker) Search(ctx context.Context, queries []string, shard, numShards int) (*blast.ShardResult, error) {
	t0 := time.Now()
	res, err := t.Worker.Search(ctx, queries, shard, numShards)
	o := rpcObs{shard: shard, t0: t0, t1: time.Now()}
	if res != nil && err == nil && len(queries) == 1 {
		o.engineNS = res.Sched().ElapsedNanos
		o.stageSpans = res.QueryStageSpans(0)
	}
	t.log.mu.Lock()
	if idx, ok := t.log.index[queries[0]]; ok {
		t.log.byReq[idx] = append(t.log.byReq[idx], o)
	}
	t.log.mu.Unlock()
	return res, err
}

// fleet is one set-up of serve_sharded: two shard daemons, remote workers, a
// router and its HTTP frontend, all on loopback in this process.
type fleet struct {
	mono      *blast.Database
	shards    []*blast.Database
	daemons   []*server.Server
	daemonMet []*obs.ServerMetrics
	rt        *router.Router
	routerMet *obs.RouterMetrics
	front     *router.Frontend
	url       string
}

func (f *fleet) close() {
	if f.front != nil {
		f.front.Close()
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, d := range f.daemons {
		d.Close()
	}
}

// startFleet is one set-up cycle: build, shard, save, verify, load, start
// the daemons, shake hands, start the frontend.
func startFleet(e *env, seqs []blast.Sequence, dir string, ph phases, log *rpcLog) (*fleet, error) {
	f := &fleet{}
	err := ph.time("blast.newdb_ms", func() (err error) { f.mono, err = blast.NewDatabase(seqs, baseParams(e.w)); return })
	if err != nil {
		return f, err
	}
	var parts []*blast.Database
	if err = ph.time("blast.shards_ms", func() (err error) { parts, err = f.mono.Shards(shardedShards); return }); err != nil {
		return f, err
	}
	p := baseParams(1)
	p.GlobalDBResidues, p.GlobalDBSequences = f.mono.TotalResidues(), int64(f.mono.NumSequences())
	remote := make([][]*router.RemoteWorker, shardedShards)
	workers := make([][]router.Worker, shardedShards)
	for s, part := range parts {
		path := filepath.Join(dir, fmt.Sprintf("shard%d.mublastp", s))
		if err = ph.time("blast.save_ms", func() error { return part.SaveFile(path) }); err != nil {
			return f, err
		}
		if err = ph.time("blast.verify_ms", func() error { _, err := blast.VerifyFile(path); return err }); err != nil {
			return f, err
		}
		var db *blast.Database
		if err = ph.time("blast.load_ms", func() (err error) { db, err = blast.LoadFile(path, p); return }); err != nil {
			return f, err
		}
		reg := obs.NewRegistry()
		d := server.New(blast.NewSession(db, p), p, server.Config{Registry: reg})
		addr, err := d.Start("127.0.0.1:0")
		if err != nil {
			return f, fmt.Errorf("starting shard daemon %d: %w", s, err)
		}
		f.shards = append(f.shards, db)
		f.daemons = append(f.daemons, d)
		f.daemonMet = append(f.daemonMet, obs.NewServerMetrics(reg))
		rw := router.NewRemoteWorker(fmt.Sprintf("shard%d", s), "http://"+addr, router.RemoteOptions{})
		remote[s] = []*router.RemoteWorker{rw}
		workers[s] = []router.Worker{rw}
		if log != nil {
			workers[s] = []router.Worker{&timedWorker{Worker: rw, log: log}}
		}
	}
	err = ph.time("router.handshake_ms", func() error {
		if _, _, err := router.VerifyRemoteTopology(context.Background(), remote); err != nil {
			return err
		}
		reg := obs.NewRegistry()
		// One replica per shard: nothing to eject to, so no prober.
		rt, err := router.New(workers, router.Options{Registry: reg, Resilience: router.ResilienceConfig{ProbeInterval: -1}})
		if err != nil {
			return err
		}
		f.rt, f.routerMet = rt, obs.NewRouterMetrics(reg)
		f.front = router.NewFrontend(rt, router.FrontendConfig{Registry: reg})
		addr, err := f.front.Start("127.0.0.1:0")
		f.url = "http://" + addr + "/search"
		return err
	})
	return f, err
}

// expectedReplies is the "results" member every reply must carry, byte for
// byte: the monolithic, unsharded search rendered the way the daemons
// render it.
func expectedReplies(db *blast.Database, queries []string) ([][]byte, error) {
	br, err := db.SearchBatchCtx(context.Background(), queries)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(queries))
	for i, r := range br.Results {
		if !br.Completed[i] {
			return nil, fmt.Errorf("reference query %d incomplete: %v", i, br.QueryErrs[i])
		}
		q := server.QueryOutput{Name: reqName(i), QueryLen: r.QueryLen, Completed: true, Hits: []server.Hit{}}
		for _, h := range r.Hits {
			q.Hits = append(q.Hits, server.HitFromBlast(h))
		}
		b, err := json.Marshal([]server.QueryOutput{q})
		if err != nil {
			return nil, err
		}
		out[i] = append(append([]byte(`"results":`), b...), `,"stats"`...)
	}
	return out, nil
}

func reqName(i int) string { return fmt.Sprintf("q%03d", i) }

// runSharded is serve_sharded: the request path client -> frontend ->
// router -> remote workers -> shard daemons -> merge -> client, with a
// short engine leg, so the serving hops are a large share of a request.
func runSharded(e *env) error {
	g := seqgen.New(seqgen.UniprotProfile(), e.seed)
	seqs, codes := genDB(g, shardedDBResidues, "s")
	queries := genQueries(g, codes, constLadder(shardedRequests, serveQueryLen))
	bodies := make([][]byte, len(queries))
	var log *rpcLog
	if e.traced() {
		log = &rpcLog{index: map[string]int{}, byReq: map[int][]rpcObs{}}
	}
	for i, q := range queries {
		bodies[i] = searchBody(reqName(i), q)
		if log != nil {
			log.index[q] = i
		}
	}
	fmt.Printf("inputs: %d sequences, %d residues, %d shards, %d requests of %d residues, %d closed-loop callers\n",
		len(seqs), totalResidues(seqs), shardedShards, len(queries), serveQueryLen, e.w)

	var f *fleet
	teardown, err := e.setUp(func(dir string, ph phases) (func(), error) {
		var err error
		f, err = startFleet(e, seqs, dir, ph, log)
		return f.close, err
	})
	if err != nil {
		if f != nil {
			f.close()
		}
		return err
	}
	defer teardown()
	want, err := expectedReplies(f.mono, queries)
	if err != nil {
		return err
	}
	check := carries(e, want)

	client := newClient(e.w)
	defer client.CloseIdleConnections()
	var next atomic.Int64
	segDur := e.seconds / 10
	plainSeg := func() segment { return closedSegment(client, f.url, bodies, &next, e.w, segDur, nil) }
	if !e.traced() {
		closedPhase(e, 1, plainSeg, check) // warm-up: connections, caches, heap
		e.cal.forget()
		segs := closedPhase(e, 10, plainSeg, check)
		st := reduceSegments(segs)
		e.set("wall.search_qps", st.qps)
		st = st.at(e.cal.speed())
		e.set("search_qps", st.qps)
		e.set("lat_p50_ms", st.p50)
		e.setTail("serve.lat_p95_ms", segs, 0.95)
		return nil
	}

	// Traced run. The span tree of one request ("request" when it is the
	// only one in flight, "request.loaded" under the closed loop, where its
	// self time also holds the waits for a free core):
	//   request            measured by the client; self = the HTTP hop, request
	//                      decode and reply encode, which no layer reports
	//     router.search    length from the reply's stats; self = scatter + merge
	//       shard.rpc      measured by the decorator; self = the hop to the daemon
	//         engine       length from the shard result; self = scheduling
	//           six stages from the shard result
	record := func(root string, idx int, t0, t1 time.Time, body []byte, rpcs []rpcObs) {
		req := e.tr.add(root, 0, idx, t0, t1)
		st, err := replyStats(body)
		if err != nil || len(rpcs) == 0 {
			return
		}
		first := rpcs[0].t0
		for _, o := range rpcs {
			if o.t0.Before(first) {
				first = o.t0
			}
		}
		rs := e.tr.fill("router.search", req, idx, first, 0, int64(st.SearchMS*1e6))
		for _, o := range rpcs {
			rpc := e.tr.add("shard.rpc", rs, idx, o.t0, o.t1)
			off := (int64(o.t1.Sub(o.t0)) - o.engineNS) / 2
			eng := e.tr.fill("engine", rpc, idx, o.t0, off, o.engineNS)
			for _, sp := range o.stageSpans {
				e.tr.fill(sp.Stage, eng, idx, o.t0, off, sp.Nanos)
				off += sp.Nanos
			}
		}
	}
	var loadedNS atomic.Int64
	tracedSeg := func() segment {
		return closedSegment(client, f.url, bodies, &next, e.w, segDur, func(idx int, t0, t1 time.Time, body []byte) {
			loadedNS.Add(int64(t1.Sub(t0)))
			record("request.loaded", idx, t0, t1, body, log.take(idx))
		})
	}

	// The decorator logs during the untraced segments too, the warm-up
	// among them; their callers only empty the log.
	drainSeg := func() segment {
		return closedSegment(client, f.url, bodies, &next, e.w, segDur, func(idx int, _, _ time.Time, _ []byte) { log.take(idx) })
	}
	closedPhase(e, 1, drainSeg, check)
	e.cal.forget()
	before := snapshot(f)
	var plain, traced []segment
	for i := 0; i < 3; i++ {
		plain = append(plain, closedPhase(e, 1, drainSeg, check)...)
		traced = append(traced, closedPhase(e, 1, tracedSeg, check)...)
	}
	after := snapshot(f)
	pst, tst := reduceSegments(plain), reduceSegments(traced)
	e.set("harness.trace_overhead_pct", 100*(pst.qps/tst.qps-1))
	e.set("harness.unattributed_loaded_pct", 100*ratio(e.tr.selfByName()["request.loaded"], float64(loadedNS.Load())/1e6))
	e.setTail("serve.lat_p95_ms", plain, 0.95)
	e.setTail("serve.lat_p99_ms", append(plain, traced...), 0.99)
	requests := float64(after.requests - before.requests)
	e.set("router.scatter_ms_mean", ratio(float64(after.scatterNS-before.scatterNS)/1e6, requests))
	e.set("router.merge_ms_mean", ratio(float64(after.mergeNS-before.mergeNS)/1e6, requests))
	e.set("server.queue_wait_ms_mean", ratio(float64(after.queueNS-before.queueNS)/1e6, float64(after.admitted-before.admitted)))
	e.set("server.request_ms_mean", ratio(float64(after.requestNS-before.requestNS)/1e6, float64(after.admitted-before.admitted)))
	e.set("router.retries", float64(after.retries-before.retries))
	e.set("router.shard_sheds", float64(after.sheds-before.sheds))
	e.set("router.shard_errors", float64(after.errors-before.errors))

	// One caller at a time over the requests in order: what one request
	// costs each layer when nothing contends.
	var wall, rpcMax, skew, self, bytesOut []float64
	n := 0
	for start := time.Now(); n < len(bodies) && time.Since(start) < e.seconds*15/100; n++ {
		t0 := time.Now()
		status, body := post(client, f.url, bodies[n])
		t1 := time.Now()
		rpcs := log.take(n)
		record("request", n, t0, t1, body, rpcs)
		checkSamples(e, []sample{{idx: n, status: status, body: body}}, check)
		if len(rpcs) != shardedShards {
			continue
		}
		lo, hi := ms(rpcs[0].t1.Sub(rpcs[0].t0)), ms(rpcs[1].t1.Sub(rpcs[1].t0))
		if lo > hi {
			lo, hi = hi, lo
		}
		wall, rpcMax, skew = append(wall, ms(t1.Sub(t0))), append(rpcMax, hi), append(skew, ratio(hi, lo))
		self, bytesOut = append(self, ms(t1.Sub(t0))-hi), append(bytesOut, float64(len(body)))
	}
	// The same requests straight into the shard databases: the engine leg
	// of the slower shard, without daemon, wire or router.
	var engine []float64
	for i := 0; i < n; i++ {
		slow := 0.0
		for _, db := range f.shards {
			t0 := time.Now()
			if _, err := db.SearchBatchCtx(context.Background(), queries[i:i+1]); err != nil {
				return err
			}
			slow = max(slow, ms(time.Since(t0)))
		}
		engine = append(engine, slow)
	}
	fmt.Printf("sequential pass: %d requests, %d of them with one rpc per shard\n", n, len(wall))
	if len(wall) == 0 {
		return fmt.Errorf("the sequential pass saw no request with one rpc per shard: nothing to attribute")
	}
	e.set("harness.unattributed_pct", 100*ratio(e.tr.selfByName()["request"], sum(wall)))
	e.set("router.request_ms", median(wall))
	e.set("router.shard_rpc_ms", median(rpcMax))
	e.set("router.shard_skew", median(skew))
	e.set("router.self_ms", median(self))
	e.set("router.resp_bytes", median(bytesOut))
	e.set("server.shard_engine_ms", median(engine))
	e.set("server.rpc_overhead_ms", median(rpcMax)-median(engine))

	// Open loop, ungated: independent users at a fixed rate, each request
	// timed from when it was due.
	due := poissonSchedule(rand.New(rand.NewSource(e.seed)), openRate, e.seconds/4)
	got := make([]sample, len(due))
	res := runOpen(wallClock{time.Now()}, due, e.w, func(i int) {
		idx := i % len(bodies)
		status, body := post(client, f.url, bodies[idx])
		got[i] = sample{idx: idx, status: status, body: body}
		log.take(idx)
	})
	checkSamples(e, got, check)
	var lat, late []float64
	for _, r := range res {
		lat, late = append(lat, ms(r.latency)), append(late, ms(r.late))
	}
	fmt.Printf("open loop: %d requests at %.0f/s\n", len(due), openRate)
	e.set("serve.open_p50_ms", quantile(lat, 0.50))
	e.set("serve.open_p95_ms", quantile(lat, 0.95))
	e.set("serve.gen_late_p95_ms", quantile(late, 0.95))
	return nil
}

// counters is what the harness reads from the registries it handed to the
// router and the shard daemons.
type counters struct {
	requests, scatterNS, mergeNS, retries, sheds, errors int64
	admitted, queueNS, requestNS                         int64
}

func snapshot(f *fleet) counters {
	m := f.routerMet
	c := counters{
		requests: m.ScatterNanos.Count(), scatterNS: m.ScatterNanos.Sum(), mergeNS: m.MergeNanos.Sum(),
		retries: m.Retries.Value(), sheds: m.ShardSheds.Value(), errors: m.ShardErrors.Value(),
	}
	for _, d := range f.daemonMet {
		c.admitted += d.RequestNanos.Count()
		c.queueNS += d.QueueWaitNanos.Sum()
		c.requestNS += d.RequestNanos.Sum()
	}
	return c
}
